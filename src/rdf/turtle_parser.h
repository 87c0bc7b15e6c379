#pragma once

#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/status.h"

/// \file turtle_parser.h
/// A Turtle / TriG-lite parser sufficient for the workloads in this
/// repository: prefixes, bases, predicate/object lists, 'a', anonymous and
/// labelled blank nodes, all literal forms, and TriG-style
/// `GRAPH <g> { ... }` blocks for loading named graphs. RDF collections
/// are not needed by any workload and are rejected with ParseError.

namespace sparqlog::rdf {

/// Parses `text` into `dataset`'s default graph (and named graphs for
/// GRAPH blocks). Terms are interned into the dataset's dictionary.
Status ParseTurtle(std::string_view text, Dataset* dataset);

/// Parses into an explicit target graph (ignores GRAPH blocks' names and
/// rejects them instead). Used when loading a named graph from a document.
Status ParseTurtleIntoGraph(std::string_view text, TermDictionary* dict,
                            Graph* graph);

}  // namespace sparqlog::rdf
