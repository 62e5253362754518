#include "ldap/query_planner.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/strings.h"

namespace metacomm::ldap {

namespace {

using CandidateList = std::vector<std::pair<std::string, Dn>>;

void SortUniqueByDn(CandidateList* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  candidates->erase(
      std::unique(candidates->begin(), candidates->end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }),
      candidates->end());
}

void AppendPostings(const Backend::Postings& postings, CandidateList* out) {
  postings.ForEach([out](const std::string& norm_dn,
                         const std::shared_ptr<const Dn>& dn) {
    out->emplace_back(norm_dn, *dn);
    return true;
  });
}

/// Sorted-by-norm-DN intersection; pairs with equal keys carry equal
/// DNs, so either side's Dn works.
CandidateList Intersect(const CandidateList& a, const CandidateList& b) {
  CandidateList out;
  out.reserve(std::min(a.size(), b.size()));
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      out.push_back(*ia);
      ++ia;
      ++ib;
    }
  }
  return out;
}

/// nullopt = unindexable; an empty list is a valid (provably empty)
/// plan — e.g. equality on a value no entry carries.
std::optional<CandidateList> PlanNode(const Backend::AttrIndex& index,
                                      const Filter& filter) {
  switch (filter.kind()) {
    case Filter::Kind::kEquality: {
      // The lexpress closure turns every propagation into a burst of
      // indexed equality searches, so this probe is hot: reuse scratch
      // keys instead of materializing fresh strings per call.
      thread_local std::string probe;
      ToLowerInto(filter.attribute(), &probe);
      const Backend::ValueIndex* values = index.Find(probe);
      CandidateList out;
      if (values == nullptr) return out;  // No entry has the attribute.
      NormalizeSpaceLowerInto(filter.value(), &probe);
      const Backend::Postings* postings = values->Find(probe);
      if (postings == nullptr) return out;
      AppendPostings(*postings, &out);
      return out;  // Postings iterate in norm-DN order: already sorted.
    }
    case Filter::Kind::kSubstring: {
      // Indexable when the pattern opens with a literal prefix. Any
      // value glob-matching "p*..." starts with p char-for-char
      // (case-insensitively), so its normalized index key starts with
      // the normalized prefix — an ordered range scan over the value
      // keys covers every possible match.
      const std::string& pattern = filter.value();
      std::string prefix;
      // The literal prefix stops at the FIRST wildcard of either kind
      // ('?' matches any one char, so it breaks literality too).
      NormalizeSpaceLowerInto(pattern.substr(0, pattern.find_first_of("*?")),
                              &prefix);
      if (prefix.empty()) return std::nullopt;
      thread_local std::string attr_key;
      ToLowerInto(filter.attribute(), &attr_key);
      const Backend::ValueIndex* values = index.Find(attr_key);
      CandidateList out;
      if (values == nullptr) return out;
      values->ForEachFrom(
          prefix, [&](const std::string& value_key,
                      const Backend::Postings& postings) {
            if (value_key.compare(0, prefix.size(), prefix) != 0) {
              return false;  // Past the prefix range: stop the scan.
            }
            AppendPostings(postings, &out);
            return true;
          });
      SortUniqueByDn(&out);
      return out;
    }
    case Filter::Kind::kAnd: {
      // Intersect every indexable child, smallest first; unindexable
      // children are enforced later by full re-evaluation.
      std::vector<CandidateList> parts;
      for (const Filter& child : filter.children()) {
        std::optional<CandidateList> part = PlanNode(index, child);
        if (part.has_value()) parts.push_back(std::move(*part));
      }
      if (parts.empty()) return std::nullopt;
      std::sort(parts.begin(), parts.end(),
                [](const CandidateList& a, const CandidateList& b) {
                  return a.size() < b.size();
                });
      CandidateList out = std::move(parts.front());
      for (size_t i = 1; i < parts.size() && !out.empty(); ++i) {
        out = Intersect(out, parts[i]);
      }
      return out;
    }
    case Filter::Kind::kOr: {
      CandidateList out;
      for (const Filter& child : filter.children()) {
        std::optional<CandidateList> part = PlanNode(index, child);
        if (!part.has_value()) return std::nullopt;
        out.insert(out.end(), std::make_move_iterator(part->begin()),
                   std::make_move_iterator(part->end()));
      }
      SortUniqueByDn(&out);
      return out;
    }
    case Filter::Kind::kNot:
    case Filter::Kind::kPresent:
    case Filter::Kind::kGreaterOrEqual:
    case Filter::Kind::kLessOrEqual:
    case Filter::Kind::kApprox:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

QueryPlan PlanFilter(const Backend::AttrIndex& index, const Filter& filter) {
  QueryPlan plan;
  std::optional<CandidateList> candidates = PlanNode(index, filter);
  if (candidates.has_value()) {
    plan.indexed = true;
    plan.candidates = std::move(*candidates);
  }
  return plan;
}

bool TreeOrderLess(const Dn& a, const Dn& b) {
  const std::vector<Rdn>& ra = a.rdns();
  const std::vector<Rdn>& rb = b.rdns();
  size_t common = std::min(ra.size(), rb.size());
  // RDNs are stored leaf-first; compare from the root side.
  for (size_t i = 1; i <= common; ++i) {
    std::string ka = ra[ra.size() - i].Normalized();
    std::string kb = rb[rb.size() - i].Normalized();
    if (ka != kb) return ka < kb;
  }
  return ra.size() < rb.size();  // Ancestors precede descendants.
}

}  // namespace metacomm::ldap
