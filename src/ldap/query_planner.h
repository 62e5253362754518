#ifndef METACOMM_LDAP_QUERY_PLANNER_H_
#define METACOMM_LDAP_QUERY_PLANNER_H_

#include <string_view>
#include <utility>
#include <vector>

#include "ldap/backend.h"
#include "ldap/filter.h"

namespace metacomm::ldap {

/// Outcome of planning a search filter against a snapshot's value
/// index.
struct QueryPlan {
  /// True when the filter resolved to a candidate DN set; false means
  /// the filter has no indexable anchor and the caller must scan the
  /// subtree.
  bool indexed = false;
  /// Candidate entries, deduplicated and sorted by normalized DN. A
  /// SUPERSET of the matching entries (substring prefixes and AND
  /// intersections over-approximate): the executor re-evaluates the
  /// full filter against every candidate, so planned and scanned
  /// searches return identical results. Each pair is a posting's key
  /// and DN, owned by the index: valid while the index lives.
  std::vector<std::pair<std::string_view, const Dn*>> candidates;
};

/// Plans `filter` against the ordered value index of a snapshot.
///
/// Indexable atoms:
///  * equality — exact posting-list lookup;
///  * substring with a literal prefix ("+1 908 582 4*") — ordered
///    range scan over the value keys, union of the covered postings.
/// Compositions:
///  * AND is indexable when at least one child is: the candidate set
///    is the intersection of every indexable child (unindexable
///    children are enforced by re-evaluation);
///  * OR is indexable only when every child is: the union.
/// Presence, >=, <=, ~= and NOT never anchor a plan: their matching
/// rules (numeric-aware ordering, phonetic folding, complements) do
/// not align with the index's normalized lexicographic key order.
QueryPlan PlanFilter(const Backend::AttrIndex& index, const Filter& filter);

}  // namespace metacomm::ldap

#endif  // METACOMM_LDAP_QUERY_PLANNER_H_
