#include "storage/group_index.h"

#include <bit>
#include <utility>

namespace dwred::storage {

GroupIndex::GroupIndex(size_t expected) {
  const size_t slots =
      std::bit_ceil(std::max<size_t>(1024, expected + expected / 3 + 2));
  tags_.assign(slots, 0);
  ids_.assign(slots, kEmpty);
  mask_ = slots - 1;
}

void GroupIndex::Grow() {
  std::vector<uint64_t> old_tags = std::move(tags_);
  std::vector<uint32_t> old_ids = std::move(ids_);
  tags_.assign(old_tags.size() * 2, 0);
  ids_.assign(old_ids.size() * 2, kEmpty);
  mask_ = tags_.size() - 1;
  for (size_t i = 0; i < old_tags.size(); ++i) {
    if (old_ids[i] == kEmpty) continue;
    size_t j = Mix(old_tags[i]) & mask_;
    while (ids_[j] != kEmpty) j = (j + 1) & mask_;
    tags_[j] = old_tags[i];
    ids_[j] = old_ids[i];
  }
}

CellFold::CellFold(size_t ndims, std::span<const AggFn> aggs,
                   size_t expected_rows)
    : ndims_(ndims), aggs_(aggs.begin(), aggs.end()), index_(expected_rows) {
  cells_.reserve(expected_rows * ndims);
  measures_.reserve(expected_rows * aggs_.size());
}

}  // namespace dwred::storage
