#pragma once

// The one open-addressing group table of the engine, and the first-occurrence
// cell fold built on it (docs/STORAGE.md "Cell folds").
//
// GroupIndex maps a group to a dense uint32 id. Each slot stores the group's
// id and a 64-bit tag; Slot(tag, eq) probes linearly from the mixed tag and
// calls eq(id) only on a tag match, so the caller decides what equality means
// without the index ever owning a key:
//
//   - the packed σ→α fold (query/operators.cc) tags a group with its whole
//     64-bit packed cell key, so a tag match is a key match (eq is always
//     true);
//   - CellFold tags a cell with its FNV-1a hash and compares the candidate
//     against the group's slice of its flat cell array.
//
// CellFold is α over cells that already sit at their final granularity: a
// new cell is appended to flat row-major cell and measure arrays, a repeated
// cell is folded into its first occurrence with CombineMeasure, in arrival
// order. Nothing allocates per cell. FactTable::CompactCells and Figure 9's
// per-cube inputs (SubcubeManager::ResponsibleInputs) both fold this way and
// hand the result to FactTable::AppendRows.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "mdm/schema.h"

namespace dwred::storage {

/// FNV-1a over a cell's coordinates (one ValueId per dimension): CellKeyHash
/// and CellFold's tag.
inline uint64_t CellHash(const ValueId* cell, size_t ndims) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t d = 0; d < ndims; ++d) {
    h ^= cell[d];
    h *= 0x100000001b3ull;
  }
  return h;
}

class GroupIndex {
 public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  /// Sized so `expected` groups fit without a rehash (at least 1024 slots).
  explicit GroupIndex(size_t expected = 0);

  /// The id slot of the group tagged `tag` for which eq(id) holds, or a
  /// fresh slot holding kEmpty that the caller must set to the new group's
  /// id. The reference is invalidated by the next Slot() call.
  template <typename Eq>
  uint32_t& Slot(uint64_t tag, Eq&& eq) {
    if ((count_ + 1) * 4 >= ids_.size() * 3) Grow();
    size_t i = Mix(tag) & mask_;
    while (ids_[i] != kEmpty) {
      if (tags_[i] == tag && eq(ids_[i])) return ids_[i];
      i = (i + 1) & mask_;
    }
    tags_[i] = tag;
    ++count_;
    return ids_[i];
  }

 private:
  static size_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  /// Doubles the table, re-placing every group by its stored tag.
  void Grow();

  std::vector<uint64_t> tags_;
  std::vector<uint32_t> ids_;
  size_t mask_ = 0;
  size_t count_ = 0;
};

class CellFold {
 public:
  /// Folds cells of `ndims` coordinates with one AggFn per measure; sized
  /// once for `expected_rows` input rows (every one may be a new cell).
  CellFold(size_t ndims, std::span<const AggFn> aggs, size_t expected_rows);

  /// Folds one row: `cell` holds ndims coordinates, `meas` one value per
  /// measure.
  void Add(const ValueId* cell, const int64_t* meas) {
    uint32_t& slot = index_.Slot(CellHash(cell, ndims_), [&](uint32_t g) {
      return std::equal(cell, cell + ndims_,
                        cells_.data() + size_t{g} * ndims_);
    });
    const size_t nmeas = aggs_.size();
    if (slot == GroupIndex::kEmpty) {
      slot = static_cast<uint32_t>(groups_++);
      cells_.insert(cells_.end(), cell, cell + ndims_);
      measures_.insert(measures_.end(), meas, meas + nmeas);
      return;
    }
    int64_t* acc = measures_.data() + size_t{slot} * nmeas;
    for (size_t m = 0; m < nmeas; ++m) {
      acc[m] = CombineMeasure(aggs_[m], acc[m], meas[m]);
    }
  }

  /// Distinct cells folded so far.
  size_t size() const { return groups_; }
  /// The folded rows in first-occurrence order, row-major.
  std::span<const ValueId> cells() const { return cells_; }
  std::span<const int64_t> measures() const { return measures_; }

 private:
  size_t ndims_;
  std::vector<AggFn> aggs_;
  GroupIndex index_;
  std::vector<ValueId> cells_;
  std::vector<int64_t> measures_;
  size_t groups_ = 0;
};

}  // namespace dwred::storage
