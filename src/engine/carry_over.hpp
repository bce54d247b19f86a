// Carry-over bookkeeping shared by lint::IncrementalLinter and
// analyze::IncrementalAnalyzer: after exactly one warm resolve they
// rebuild only the records whose footprint meets the dirty cone
// (SynthesisSession::last_dirty_cone) and carry the rest over, matched
// by a signature -- never by EdgeId, which remove_constraint's swap-pop
// invalidates. Each consumer keeps its own rules for what to recompute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "engine/session.hpp"

namespace relsched::engine {

template <class Sig>
class CarryOver {
 public:
  enum class Path { kCurrent, kCone, kFull };

  /// kCurrent when no resolve ran since the cached report; kCone when
  /// exactly ONE warm resolve separates it from `products` (so
  /// last_dirty_cone() bounds everything that changed) and the
  /// consumer's own precondition `cached_ok` holds; else kFull.
  [[nodiscard]] Path plan(const SynthesisSession& session,
                          const Products& products, bool cached_ok) const {
    const long long resolves = session.resolve_count();
    if (valid_ && products.revision == revision_ && resolves == resolves_) {
      return Path::kCurrent;
    }
    return valid_ && cached_ok && products.ok() &&
                   session.last_resolve_was_warm() && resolves == resolves_ + 1
               ? Path::kCone
               : Path::kFull;
  }

  /// The cached report's signatures, consumed front-to-back so two
  /// records with one signature each get their own match.
  class Index {
   public:
    explicit Index(const std::vector<Sig>& sigs) {
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        slots_[sigs[i]].push_back(i);
      }
    }
    /// The next unmatched record with `key` among `cached` (the cached
    /// report's records, in signature order), or nullptr.
    template <class Record>
    const Record* take(const Sig& key, const std::vector<Record>& cached) {
      const auto it = slots_.find(key);
      if (it == slots_.end() || it->second.empty()) return nullptr;
      const std::size_t i = it->second.front();
      it->second.pop_front();
      return &cached[i];
    }

   private:
    std::map<Sig, std::deque<std::size_t>> slots_;
  };
  [[nodiscard]] Index index() const { return Index(sigs_); }

  /// Records the report just built for `products`. The signatures are
  /// taken now, while the records' EdgeIds are valid.
  template <class Records, class SigOf>
  void store(const SynthesisSession& session, const Products& products,
             const Records& records, SigOf sig_of) {
    sigs_.clear();
    for (const auto& record : records) sigs_.push_back(sig_of(record));
    revision_ = products.revision;
    resolves_ = session.resolve_count();
    valid_ = true;
  }

 private:
  std::vector<Sig> sigs_;
  std::uint64_t revision_ = 0;
  long long resolves_ = 0;
  bool valid_ = false;
};

}  // namespace relsched::engine
