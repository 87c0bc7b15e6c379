#include "rdf/graph.h"

namespace sparqlog::rdf {

void Graph::Lazy::Drop() {
  if (built.load(std::memory_order_relaxed) == 0) return;
  built.store(0, std::memory_order_relaxed);
  by = {};
  nodes = {};
}

bool Graph::Add(Triple t) {
  if (!set_.insert(t).second) return false;
  ++version_;
  triples_.push_back(t);
  lazy_.Drop();
  return true;
}

template <typename Build>
void Graph::Ensure(Part part, const Build& build) const {
  const uint32_t bit = 1u << part;
  if (lazy_.built.load(std::memory_order_acquire) & bit) return;
  std::lock_guard<std::mutex> lock(lazy_.mu);
  if (lazy_.built.load(std::memory_order_relaxed) & bit) return;
  build();
  lazy_.built.fetch_or(bit, std::memory_order_release);
}

const Graph::View& Graph::ViewOf(Part part) const {
  Ensure(part, [&] {
    static constexpr TermId Triple::*kMember[] = {&Triple::s, &Triple::p,
                                                 &Triple::o};
    for (const Triple& t : triples_) {
      lazy_.by[part][t.*kMember[part]].push_back(t);
    }
  });
  return lazy_.by[part];
}

const std::vector<Triple>& Graph::Lookup(Part part, TermId key) const {
  static const std::vector<Triple>& none = *new std::vector<Triple>();
  const View& view = ViewOf(part);
  auto it = view.find(key);
  return it == view.end() ? none : it->second;
}

void Graph::Match(std::optional<TermId> s, std::optional<TermId> p,
                  std::optional<TermId> o,
                  const std::function<void(const Triple&)>& fn) const {
  // Fully bound: set lookup.
  if (s && p && o) {
    Triple t{*s, *p, *o};
    if (Contains(t)) fn(t);
    return;
  }
  // Choose the smallest bound view, falling back to a scan.
  const std::vector<Triple>* source = &triples_;
  if (s) source = &Lookup(kSubject, *s);
  if (p) {
    const std::vector<Triple>* cand = &Lookup(kPredicate, *p);
    if (cand->size() < source->size()) source = cand;
  }
  if (o) {
    const std::vector<Triple>* cand = &Lookup(kObject, *o);
    if (cand->size() < source->size()) source = cand;
  }
  for (const Triple& t : *source) {
    if (s && t.s != *s) continue;
    if (p && t.p != *p) continue;
    if (o && t.o != *o) continue;
    fn(t);
  }
}

const std::vector<TermId>& Graph::SubjectsAndObjects() const {
  Ensure(kNodes, [&] {
    std::vector<bool> seen;
    for (const Triple& t : triples_) {
      for (TermId n : {t.s, t.o}) {
        if (n >= seen.size()) seen.resize(n + 1);
        if (!seen[n]) lazy_.nodes.push_back(n);
        seen[n] = true;
      }
    }
  });
  return lazy_.nodes;
}

std::vector<TermId> Graph::Predicates() const {
  const View& by_p = ViewOf(kPredicate);
  std::vector<TermId> out;
  out.reserve(by_p.size());
  for (const auto& [p, _] : by_p) out.push_back(p);
  return out;
}

void Graph::MergeFrom(const Graph& other) {
  for (const Triple& t : other.triples()) Add(t);
}

std::pair<size_t, size_t> Graph::ApplyDelta(
    const std::vector<Triple>& inserts, const std::vector<Triple>& deletes) {
  size_t removed = 0;
  std::unordered_set<Triple, TripleHash> gone;
  for (const Triple& t : deletes) {
    if (set_.erase(t) == 0) continue;
    gone.insert(t);
    ++removed;
    ++version_;
  }
  if (removed > 0) {
    // A removed triple's subject must be a removed subject, so the scan
    // tests the TermId before paying a TripleHash — for a small delete
    // over a large graph nearly every resident triple takes the cheap
    // branch.
    std::unordered_set<TermId> gone_s;
    for (const Triple& t : gone) gone_s.insert(t.s);
    std::erase_if(triples_, [&](const Triple& t) {
      return gone_s.count(t.s) > 0 && gone.count(t) > 0;
    });
    lazy_.Drop();
  }
  size_t added = 0;
  for (const Triple& t : inserts) {
    if (Add(t)) ++added;
  }
  return {added, removed};
}

size_t Dataset::TotalTriples() const {
  size_t n = default_graph_.size();
  for (const auto& [_, g] : named_) n += g.size();
  return n;
}

uint64_t Dataset::Generation() const {
  size_t g = 0xcbf29ce484222325ULL;
  HashCombine(g, default_graph_.version());
  HashCombine(g, named_.size());
  for (const auto& [id, graph] : named_) {
    HashCombine(g, id);
    HashCombine(g, graph.version());
  }
  return g;
}

Dataset Dataset::WithClauses(const std::vector<TermId>& from,
                             const std::vector<TermId>& from_named) const {
  Dataset out(dict_);
  for (TermId g : from) {
    if (const Graph* src = FindNamedGraph(g)) {
      out.default_graph().MergeFrom(*src);
    }
  }
  for (TermId g : from_named) {
    Graph& dst = out.named_graph(g);
    if (const Graph* src = FindNamedGraph(g)) dst.MergeFrom(*src);
  }
  return out;
}

}  // namespace sparqlog::rdf
