#pragma once

#include "eval/quirk_config.h"

/// \file virtuoso_sim.h
/// The "Virtuoso" baseline: the reference evaluator with the deviations
/// the paper documents for OpenLink Virtuoso 7.2.5 injected (§6.2,
/// Appendix D.2.3). See DESIGN.md §3 for the substitution rationale —
/// the experiments need a system that fails in exactly these ways:
///   * errors on ? / * / + property paths with two unbound variables
///     ("transitive start is not given");
///   * one-or-more computed as zero-or-more minus the start node
///     (incomplete on cyclic paths);
///   * alternative paths drop duplicates;
///   * UNION drops duplicates / DISTINCT ignored on UNION queries;
///   * errors on GRAPH patterns and complex ORDER BY keys.

namespace sparqlog::quirks {

/// The configured deviation set.
eval::EngineQuirks VirtuosoQuirks();

}  // namespace sparqlog::quirks
