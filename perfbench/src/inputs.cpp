#include "inputs.h"

#include <algorithm>
#include <string_view>

#include "rdf/turtle_parser.h"
#include "rdf/writer.h"
#include "util.h"
#include "workloads/gmark.h"
#include "workloads/sp2bench.h"

namespace perfbench {

using namespace sparqlog;

namespace {

constexpr char kRdfType[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr char kBench[] = "http://localhost/vocabulary/bench/";
constexpr char kFoafPerson[] = "http://xmlns.com/foaf/0.1/Person";
constexpr char kDcTitle[] = "http://purl.org/dc/elements/1.1/title";
constexpr char kDcCreator[] = "<http://purl.org/dc/elements/1.1/creator>";
constexpr char kReferences[] = "<http://purl.org/dc/terms/references>";
constexpr char kGmarkNs[] = "<http://example.org/gMark/";
constexpr char kSp2bPersons[] = "<http://localhost/persons/p";
constexpr char kSp2bPapers[] = "<http://localhost/publications/art";

template <typename T>
void Shuffle(std::vector<T>* v, Rand* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

/// Entities of a generated SP2B graph, rendered as N-Triples terms, in
/// creation order (the order of their rdf:type triples).
struct Sp2bEntities {
  std::vector<std::string> persons, papers, journal_titles;
};

Sp2bEntities CollectSp2b(const rdf::Dataset& ds) {
  const rdf::TermDictionary& dict = *ds.dict();
  Sp2bEntities e;
  std::vector<rdf::TermId> journals;
  for (const rdf::Triple& t : ds.default_graph().triples()) {
    if (dict.get(t.p).lexical != kRdfType) continue;
    const std::string& cls = dict.get(t.o).lexical;
    if (cls == kFoafPerson) {
      e.persons.push_back(dict.Render(t.s));
    } else if (cls == std::string(kBench) + "Article" ||
               cls == std::string(kBench) + "Inproceedings") {
      e.papers.push_back(dict.Render(t.s));
    } else if (cls == std::string(kBench) + "Journal") {
      journals.push_back(t.s);
    }
  }
  for (rdf::TermId j : journals) {
    for (const rdf::Triple& t : ds.default_graph().WithSubject(j)) {
      if (dict.get(t.p).lexical == kDcTitle) {
        e.journal_titles.push_back(dict.Render(t.o));
      }
    }
  }
  return e;
}

std::vector<UpdateBatches::Kind> Sp2bUpdateKinds(const Sp2bEntities& e) {
  return {{e.papers, kReferences, e.papers, /*backward=*/true},
          {e.papers, kDcCreator, e.persons}};
}

/// Rewrites every IRI "<prefix N>" (N a decimal number below
/// perm.size()) to "<prefix perm[N]>".
std::string Relabel(std::string_view text, std::string_view ns,
                    const std::vector<size_t>& perm) {
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (true) {
    size_t hit = text.find(ns, pos);
    if (hit == std::string_view::npos) break;
    size_t digits = hit + ns.size();
    size_t end = digits;
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
    out.append(text.substr(pos, digits - pos));
    if (end > digits && end < text.size() && text[end] == '>') {
      size_t id = std::stoul(std::string(text.substr(digits, end - digits)));
      out += std::to_string(id < perm.size() ? perm[id] : id);
    } else {
      out.append(text.substr(digits, end - digits));
    }
    pos = end;
  }
  out.append(text.substr(pos));
  return out;
}

/// SP2Bench data as N-Triples. The generator runs with its own default
/// seed, so the graph's shape — and with it the cost of every query — is
/// the same for every run seed; the run seed relabels every person and
/// publication IRI, in the data and (through `relabel`) in query texts.
/// With a fresh shape per seed, q5a and q6 alone moved the pass time by
/// more than ten percent.
struct Sp2bText {
  std::string ntriples;
  Sp2bEntities entities;  ///< relabeled
  std::vector<size_t> persons_perm, papers_perm;
  std::string relabel(std::string_view text) const {
    return Relabel(Relabel(text, kSp2bPersons, persons_perm), kSp2bPapers,
                   papers_perm);
  }
};

Sp2bText MakeSp2bText(size_t triples, uint64_t seed) {
  Sp2bText out;
  std::string original;
  {
    rdf::TermDictionary dict;
    rdf::Dataset ds(&dict);
    workloads::Sp2bOptions options;
    options.target_triples = triples;
    workloads::GenerateSp2b(options, &ds);
    original = rdf::WriteNTriples(ds.default_graph(), dict);
  }
  // Entity numbers stay below the triple count, so permutations of
  // [0, triples) relabel every one of them.
  Rand rng(seed);
  for (auto* perm : {&out.persons_perm, &out.papers_perm}) {
    perm->resize(triples);
    for (size_t i = 0; i < triples; ++i) (*perm)[i] = i;
    Shuffle(perm, &rng);
  }
  out.ntriples = out.relabel(original);
  rdf::TermDictionary dict;
  rdf::Dataset ds(&dict);
  rdf::ParseTurtle(out.ntriples, &ds);
  out.entities = CollectSp2b(ds);
  return out;
}

}  // namespace

UpdateBatches::UpdateBatches(const std::string& base_ntriples,
                             std::vector<Kind> kinds, uint64_t seed)
    : kinds_(std::move(kinds)), seed_(seed) {
  size_t pos = 0;
  while (pos < base_ntriples.size()) {
    size_t end = base_ntriples.find('\n', pos);
    if (end == std::string::npos) end = base_ntriples.size();
    used_.insert(base_ntriples.substr(pos, end - pos));
    pos = end + 1;
  }
}

const std::string& UpdateBatches::Batch(size_t j) {
  while (batches_.size() <= j) {
    Rand rng(seed_ * 1000003 + batches_.size());
    std::string body;
    size_t made = 0;
    while (made < kBatchTriples) {
      const Kind& kind = kinds_[rng.Uniform(kinds_.size())];
      size_t s = rng.Uniform(kind.subjects.size());
      size_t o = rng.Uniform(kind.objects.size());
      if (kind.backward) {
        if (s == o) continue;
        if (s < o) std::swap(s, o);
      }
      std::string line = kind.subjects[s] + " " + kind.predicate + " " +
                         kind.objects[o] + " .";
      if (!used_.insert(line).second) continue;
      body += line;
      body += '\n';
      ++made;
    }
    batches_.push_back(std::move(body));
  }
  return batches_[j];
}

FixedInputs MakeSp2bInputs(size_t triples, uint64_t seed) {
  Sp2bText data = MakeSp2bText(triples, seed);
  FixedInputs in;
  in.ntriples = std::move(data.ntriples);
  for (auto& [name, text] : workloads::Sp2bQueries()) {
    in.queries.emplace_back(name, data.relabel(text));
  }
  in.update_kinds = Sp2bUpdateKinds(data.entities);
  return in;
}

FixedInputs MakeGmarkInputs(size_t edges, uint64_t seed) {
  workloads::GmarkScenario scenario = workloads::GmarkSocial();
  scenario.edges = edges;
  rdf::TermDictionary dict;
  rdf::Dataset ds(&dict);
  workloads::GenerateGmarkGraph(scenario, &ds);

  std::vector<size_t> perm(scenario.nodes);
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rand rng(seed);
  Shuffle(&perm, &rng);

  FixedInputs in;
  in.ntriples =
      Relabel(rdf::WriteNTriples(ds.default_graph(), dict), kGmarkNs, perm);
  std::vector<std::string> texts = workloads::GenerateGmarkQueries(scenario);
  for (size_t i = 0; i < texts.size(); ++i) {
    in.queries.emplace_back("q" + std::to_string(i),
                            Relabel(texts[i], kGmarkNs, perm));
  }
  std::vector<std::string> nodes;
  for (size_t i = 0; i < scenario.nodes; ++i) {
    nodes.push_back(kGmarkNs + std::to_string(i) + ">");
  }
  for (const std::string& p : scenario.predicates) {
    in.update_kinds.push_back({nodes, kGmarkNs + p + ">", nodes});
  }
  return in;
}

ServeInputs::ServeInputs(size_t triples, uint64_t seed, bool mixed)
    : rng_state_(seed), mixed_(mixed) {
  Sp2bText data = MakeSp2bText(triples, seed);
  ntriples_ = std::move(data.ntriples);
  update_kinds_ = Sp2bUpdateKinds(data.entities);
  persons_ = std::move(data.entities.persons);
  papers_ = std::move(data.entities.papers);
  journal_titles_ = std::move(data.entities.journal_titles);
}

ServeOp ServeInputs::Next() {
  ServeOp op;
  uint64_t index = index_++;
  if (mixed_ && index % 10 == 9) {
    op.update = true;
    return op;
  }
  Rand rng(rng_state_ * 0x100000001b3ULL + index);
  op.tmpl = rng.Uniform(kNumTemplates);
  std::deque<std::string>& recent = recent_[op.tmpl];
  if (!recent.empty() && rng.Unit() < 0.25) {
    op.text = recent[rng.Uniform(recent.size())];
    return op;
  }
  static const std::string kPrefixes =
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX bench: <http://localhost/vocabulary/bench/>\n"
      "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
      "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n";
  const std::string& person = persons_[rng.Uniform(persons_.size())];
  const std::string& paper = papers_[rng.Uniform(papers_.size())];
  switch (op.tmpl) {
    case 0:
      op.text = "SELECT ?journal ?yr WHERE {\n"
                "  ?journal rdf:type bench:Journal .\n"
                "  ?journal dc:title " +
                journal_titles_[rng.Uniform(journal_titles_.size())] +
                " .\n  ?journal dcterms:issued ?yr .\n}";
      break;
    case 1:
      op.text = "SELECT ?s ?p WHERE { ?s ?p " + person + " . }";
      break;
    case 2:
      op.text = "SELECT ?doc ?title WHERE {\n  ?doc dc:creator " + person +
                " .\n  ?doc dc:title ?title .\n}";
      break;
    case 3:
      op.text = "SELECT DISTINCT ?coauthor ?name WHERE {\n  ?doc dc:creator " +
                person +
                " .\n  ?doc dc:creator ?coauthor .\n"
                "  ?coauthor foaf:name ?name .\n  FILTER (?coauthor != " +
                person + ")\n}";
      break;
    case 4:
      op.text = "SELECT ?cited WHERE { " + paper +
                " dcterms:references+ ?cited . }";
      break;
    default:
      op.text = "SELECT ?doc ?title WHERE {\n"
                "  ?doc rdf:type bench:Article .\n"
                "  ?doc dc:title ?title .\n}\nORDER BY ?doc\nLIMIT 10\nOFFSET " +
                std::to_string(10 * rng.Uniform(50));
      break;
  }
  op.text = kPrefixes + op.text;
  recent.push_back(op.text);
  if (recent.size() > 8) recent.pop_front();
  return op;
}

uint64_t InputDigest(const std::vector<std::string>& texts) {
  uint64_t h = Fnv("inputs");
  for (const std::string& t : texts) h = Fnv(t + "\x1d", h);
  return h;
}

}  // namespace perfbench
