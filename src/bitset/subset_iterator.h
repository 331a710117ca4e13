#ifndef JOINOPT_BITSET_SUBSET_ITERATOR_H_
#define JOINOPT_BITSET_SUBSET_ITERATOR_H_

#include <cstdint>

#include "bitset/node_set.h"

namespace joinopt {

/// Enumerates all non-empty subsets of a NodeSet in ascending numeric order
/// of their masks, using the Vance-Maier increment
///
///     next = (current - superset) & superset
///
/// which steps through exactly the masks contained in `superset` [Vance &
/// Maier, SIGMOD '96]. Ascending numeric order guarantees that every proper
/// subset of a set is produced before the set itself, which is the property
/// dynamic programming needs.
///
/// Usage:
///   for (SubsetIterator it(s); !it.Done(); it.Next()) {
///     NodeSet subset = it.Current();   // non-empty, subset of s
///   }
///
/// The superset itself IS produced (as the last subset). Use
/// ProperSubsetIterator to exclude it.
class SubsetIterator {
 public:
  /// Starts the enumeration over the non-empty subsets of `superset`.
  /// An empty superset yields an enumeration that is immediately Done().
  explicit SubsetIterator(NodeSet superset)
      : superset_(superset.mask()),
        current_((0 - superset.mask()) & superset.mask()),
        done_(superset.empty()) {}

  /// True when the enumeration is exhausted.
  bool Done() const { return done_; }

  /// The current subset. Requires !Done().
  NodeSet Current() const { return NodeSet::FromMask(current_); }

  /// Advances to the next subset.
  void Next() {
    if (current_ == superset_) {
      done_ = true;
      return;
    }
    current_ = (current_ - superset_) & superset_;
  }

 private:
  uint64_t superset_;
  uint64_t current_;
  bool done_;
};

/// Enumerates the non-empty *proper* subsets of a NodeSet (i.e. excludes
/// the superset itself), in ascending numeric order. This is exactly the
/// inner loop of DPsub: 2^|S| - 2 iterations for |S| >= 1.
class ProperSubsetIterator {
 public:
  explicit ProperSubsetIterator(NodeSet superset)
      : superset_(superset.mask()),
        current_((0 - superset_) & superset_),
        done_(superset.count() <= 1) {}

  bool Done() const { return done_; }

  NodeSet Current() const { return NodeSet::FromMask(current_); }

  void Next() {
    current_ = (current_ - superset_) & superset_;
    if (current_ == superset_) {
      done_ = true;
    }
  }

 private:
  uint64_t superset_;
  uint64_t current_;
  bool done_;
};

/// Gosper's hack: the next mask with the same popcount as the non-zero
/// `mask`, in ascending order. Sweeps all size-k subsets of a prefix; the
/// caller's loop bound handles the final overflow.
inline uint64_t NextSameCount(uint64_t mask) {
  const uint64_t low = mask & (0 - mask);
  const uint64_t carry = mask + low;
  return carry | (((mask ^ carry) >> 2) / low);
}

}  // namespace joinopt

#endif  // JOINOPT_BITSET_SUBSET_ITERATOR_H_
