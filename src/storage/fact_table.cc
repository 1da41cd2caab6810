#include "storage/fact_table.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/strings.h"
#include "obs/logging.h"
#include "obs/metrics.h"

namespace dwred {

namespace {

obs::Gauge& RowsGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "dwred_storage_fact_rows", "rows held by live FactTables");
  return g;
}

obs::Gauge& BytesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "dwred_storage_fact_bytes", "bytes held by live FactTables");
  return g;
}

obs::Gauge& RowBytesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "dwred_storage_bytes_row",
      "bytes live FactTables would occupy in the un-encoded row layout");
  return g;
}

obs::Gauge& ColumnarBytesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "dwred_storage_bytes_columnar",
      "resident bytes of live FactTables' columns (encoded where sealed)");
  return g;
}

obs::Gauge& SavedBytesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "dwred_storage_bytes_saved",
      "bytes saved by seal-time column encodings (row - columnar)");
  return g;
}

/// Resolves the default segment row budget: DWRED_SEGMENT_ROWS when set —
/// validated and clamped to [kMinSegmentRows, kMaxSegmentRows] with a
/// warning, the DWRED_THREADS convention — else kDefaultSegmentRows.
/// Re-read on every default-budget construction; the budget is physical
/// layout only, so it never changes logical bytes.
size_t SegmentRowsFromEnv() {
  return static_cast<size_t>(
      EnvInt64("DWRED_SEGMENT_ROWS",
               static_cast<int64_t>(FactTable::kDefaultSegmentRows),
               static_cast<int64_t>(FactTable::kMinSegmentRows),
               static_cast<int64_t>(FactTable::kMaxSegmentRows),
               EnvRangePolicy::kClamp));
}

template <typename T>
void ZoneOverColumn(const T* col, const std::vector<uint8_t>& dead,
                    size_t phys, T* mn, T* mx) {
  bool first = true;
  for (size_t p = 0; p < phys; ++p) {
    if (!dead.empty() && dead[p]) continue;
    if (first) {
      *mn = *mx = col[p];
      first = false;
    } else {
      *mn = std::min(*mn, col[p]);
      *mx = std::max(*mx, col[p]);
    }
  }
}

}  // namespace

void FactTable::UpdateFootprint(int64_t row_delta) {
  if constexpr (!obs::kObsEnabled) {
    (void)row_delta;
    return;
  }
  const size_t now_bytes = Bytes();
  const size_t now_row_bytes = RowEquivalentBytes();
  RowsGauge().Add(row_delta);
  const int64_t byte_delta = static_cast<int64_t>(now_bytes) -
                             static_cast<int64_t>(reported_bytes_);
  const int64_t row_byte_delta = static_cast<int64_t>(now_row_bytes) -
                                 static_cast<int64_t>(reported_row_bytes_);
  BytesGauge().Add(byte_delta);
  ColumnarBytesGauge().Add(byte_delta);
  RowBytesGauge().Add(row_byte_delta);
  SavedBytesGauge().Add(row_byte_delta - byte_delta);
  reported_bytes_ = now_bytes;
  reported_row_bytes_ = now_row_bytes;
}

void FactTable::ReleaseFootprint() {
  if constexpr (!obs::kObsEnabled) return;
  RowsGauge().Add(-static_cast<int64_t>(num_rows_));
  BytesGauge().Add(-static_cast<int64_t>(reported_bytes_));
  ColumnarBytesGauge().Add(-static_cast<int64_t>(reported_bytes_));
  RowBytesGauge().Add(-static_cast<int64_t>(reported_row_bytes_));
  SavedBytesGauge().Add(static_cast<int64_t>(reported_bytes_) -
                        static_cast<int64_t>(reported_row_bytes_));
  reported_bytes_ = 0;
  reported_row_bytes_ = 0;
}

FactTable::FactTable(size_t num_dims, size_t num_measures, size_t segment_rows)
    : ndims_(num_dims),
      nmeas_(num_measures),
      segment_rows_(segment_rows == 0 ? SegmentRowsFromEnv() : segment_rows) {}

FactTable::~FactTable() { ReleaseFootprint(); }

FactTable::FactTable(const FactTable& other)
    : ndims_(other.ndims_),
      nmeas_(other.nmeas_),
      segment_rows_(other.segment_rows_),
      num_rows_(other.num_rows_),
      phys_rows_(other.phys_rows_),
      data_bytes_(other.data_bytes_),
      segs_(other.segs_),
      starts_(other.starts_),
      content_version_(other.content_version_) {
  UpdateFootprint(static_cast<int64_t>(num_rows_));
}

FactTable& FactTable::operator=(const FactTable& other) {
  if (this == &other) return *this;
  int64_t old_rows = static_cast<int64_t>(num_rows_);
  ndims_ = other.ndims_;
  nmeas_ = other.nmeas_;
  segment_rows_ = other.segment_rows_;
  num_rows_ = other.num_rows_;
  phys_rows_ = other.phys_rows_;
  data_bytes_ = other.data_bytes_;
  segs_ = other.segs_;
  starts_ = other.starts_;
  content_version_ = other.content_version_;
  UpdateFootprint(static_cast<int64_t>(num_rows_) - old_rows);
  return *this;
}

FactTable::FactTable(FactTable&& other) noexcept
    : ndims_(other.ndims_),
      nmeas_(other.nmeas_),
      segment_rows_(other.segment_rows_),
      num_rows_(other.num_rows_),
      phys_rows_(other.phys_rows_),
      data_bytes_(other.data_bytes_),
      segs_(std::move(other.segs_)),
      starts_(std::move(other.starts_)),
      reported_bytes_(other.reported_bytes_),
      reported_row_bytes_(other.reported_row_bytes_),
      content_version_(other.content_version_) {
  // The gauge contribution moves with the data; the source owes nothing.
  other.num_rows_ = 0;
  other.phys_rows_ = 0;
  other.data_bytes_ = 0;
  other.reported_bytes_ = 0;
  other.reported_row_bytes_ = 0;
  other.segs_.clear();
  other.starts_.clear();
}

FactTable& FactTable::operator=(FactTable&& other) noexcept {
  if (this == &other) return *this;
  ReleaseFootprint();
  ndims_ = other.ndims_;
  nmeas_ = other.nmeas_;
  segment_rows_ = other.segment_rows_;
  num_rows_ = other.num_rows_;
  phys_rows_ = other.phys_rows_;
  data_bytes_ = other.data_bytes_;
  segs_ = std::move(other.segs_);
  starts_ = std::move(other.starts_);
  reported_bytes_ = other.reported_bytes_;
  reported_row_bytes_ = other.reported_row_bytes_;
  content_version_ = other.content_version_;
  other.num_rows_ = 0;
  other.phys_rows_ = 0;
  other.data_bytes_ = 0;
  other.reported_bytes_ = 0;
  other.reported_row_bytes_ = 0;
  other.segs_.clear();
  other.starts_.clear();
  return *this;
}

std::pair<size_t, size_t> FactTable::Locate(RowId r) const {
  DWRED_CHECK(r < num_rows_);
  size_t s = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), r) - starts_.begin() -
      1);
  size_t off = static_cast<size_t>(r) - starts_[s];
  const Segment& seg = segs_[s];
  return {s, seg.dead.empty() ? off : seg.live_phys[off]};
}

size_t FactTable::SegmentDataBytesOf(const Segment& s) const {
  if (!s.encoded) return s.phys * RowWidth();
  size_t b = 0;
  for (const auto& c : s.edims) b += c.DataBytes();
  for (const auto& c : s.emeas) b += c.DataBytes();
  return b;
}

void FactTable::EncodeSegment(Segment& s) const {
  if (s.encoded) return;
  s.edims.reserve(ndims_);
  for (size_t d = 0; d < ndims_; ++d) {
    s.edims.push_back(storage::EncodedColumn<ValueId>::Encode(
        std::move(s.dims[d])));
  }
  s.emeas.reserve(nmeas_);
  for (size_t m = 0; m < nmeas_; ++m) {
    s.emeas.push_back(storage::EncodedColumn<int64_t>::Encode(
        std::move(s.meas[m])));
  }
  s.dims.clear();
  s.meas.clear();
  s.encoded = true;
}

void FactTable::DecodeSegment(Segment& s) const {
  if (!s.encoded) return;
  s.dims.resize(ndims_);
  for (size_t d = 0; d < ndims_; ++d) {
    s.dims[d].resize(s.phys);
    s.edims[d].Decode(0, s.phys, s.dims[d].data());
  }
  s.meas.resize(nmeas_);
  for (size_t m = 0; m < nmeas_; ++m) {
    s.meas[m].resize(s.phys);
    s.emeas[m].Decode(0, s.phys, s.meas[m].data());
  }
  s.edims.clear();
  s.emeas.clear();
  s.encoded = false;
}

void FactTable::SealSegment(Segment& s) {
  s.sealed = true;
  // The seal is the encoding point: every sealed segment is encoded.
  const size_t before = SegmentDataBytesOf(s);
  EncodeSegment(s);
  const size_t after = SegmentDataBytesOf(s);
  data_bytes_ = data_bytes_ - before + after;
}

RowId FactTable::Append(std::span<const ValueId> coords,
                        std::span<const int64_t> measures) {
  DWRED_CHECK(coords.size() == ndims_);
  DWRED_CHECK(measures.size() == nmeas_);
  if (segs_.empty() || segs_.back().sealed) {
    Segment seg;
    seg.dims.resize(ndims_);
    seg.meas.resize(nmeas_);
    seg.dmin.resize(ndims_);
    seg.dmax.resize(ndims_);
    seg.mmin.resize(nmeas_);
    seg.mmax.resize(nmeas_);
    starts_.push_back(num_rows_);
    segs_.push_back(std::move(seg));
  }
  Segment& tail = segs_.back();
  for (size_t d = 0; d < ndims_; ++d) {
    tail.dims[d].push_back(coords[d]);
    if (tail.live == 0) {
      tail.dmin[d] = tail.dmax[d] = coords[d];
    } else {
      tail.dmin[d] = std::min(tail.dmin[d], coords[d]);
      tail.dmax[d] = std::max(tail.dmax[d], coords[d]);
    }
  }
  for (size_t m = 0; m < nmeas_; ++m) {
    tail.meas[m].push_back(measures[m]);
    if (tail.live == 0) {
      tail.mmin[m] = tail.mmax[m] = measures[m];
    } else {
      tail.mmin[m] = std::min(tail.mmin[m], measures[m]);
      tail.mmax[m] = std::max(tail.mmax[m], measures[m]);
    }
  }
  ++tail.phys;
  if (!tail.dead.empty()) {
    tail.dead.push_back(0);
    tail.live_phys.push_back(static_cast<uint32_t>(tail.phys - 1));
  }
  ++tail.live;
  ++phys_rows_;
  data_bytes_ += RowWidth();
  if (tail.phys >= segment_rows_) SealSegment(tail);
  RowId r = num_rows_++;
  ++content_version_;
  UpdateFootprint(1);
  return r;
}

void FactTable::ReadCoords(RowId r, ValueId* out) const {
  auto [s, p] = Locate(r);
  const Segment& seg = segs_[s];
  if (seg.encoded) {
    for (size_t d = 0; d < ndims_; ++d) out[d] = seg.edims[d].At(p);
  } else {
    for (size_t d = 0; d < ndims_; ++d) out[d] = seg.dims[d][p];
  }
}

void FactTable::FillBatch(const Segment& seg, size_t lo, size_t n,
                          bool need_measures, BatchView* b) const {
  const bool dense = seg.dead.empty();
  auto dim_scratch = [&](size_t d) {
    if (b->dscratch_.empty()) b->dscratch_.resize(ndims_ * kBatchRows);
    return b->dscratch_.data() + d * kBatchRows;
  };
  auto meas_scratch = [&](size_t m) {
    if (b->mscratch_.empty()) b->mscratch_.resize(nmeas_ * kBatchRows);
    return b->mscratch_.data() + m * kBatchRows;
  };
  for (size_t d = 0; d < ndims_; ++d) {
    if (dense) {
      if (!seg.encoded) {
        b->dims_[d] = seg.dims[d].data() + lo;
        continue;
      }
      if (const ValueId* p = seg.edims[d].PlainData()) {
        b->dims_[d] = p + lo;
        continue;
      }
      ValueId* out = dim_scratch(d);
      seg.edims[d].Decode(lo, lo + n, out);
      b->dims_[d] = out;
    } else {
      ValueId* out = dim_scratch(d);
      const uint32_t* phys = seg.live_phys.data() + lo;
      if (seg.encoded) {
        for (size_t i = 0; i < n; ++i) out[i] = seg.edims[d].At(phys[i]);
      } else {
        const ValueId* col = seg.dims[d].data();
        for (size_t i = 0; i < n; ++i) out[i] = col[phys[i]];
      }
      b->dims_[d] = out;
    }
  }
  if (!need_measures) return;
  for (size_t m = 0; m < nmeas_; ++m) {
    if (dense) {
      if (!seg.encoded) {
        b->meas_[m] = seg.meas[m].data() + lo;
        continue;
      }
      if (const int64_t* p = seg.emeas[m].PlainData()) {
        b->meas_[m] = p + lo;
        continue;
      }
      int64_t* out = meas_scratch(m);
      seg.emeas[m].Decode(lo, lo + n, out);
      b->meas_[m] = out;
    } else {
      int64_t* out = meas_scratch(m);
      const uint32_t* phys = seg.live_phys.data() + lo;
      if (seg.encoded) {
        for (size_t i = 0; i < n; ++i) out[i] = seg.emeas[m].At(phys[i]);
      } else {
        const int64_t* col = seg.meas[m].data();
        for (size_t i = 0; i < n; ++i) out[i] = col[phys[i]];
      }
      b->meas_[m] = out;
    }
  }
}

void FactTable::RecomputeZones(Segment& s) const {
  std::vector<ValueId> dtmp;
  std::vector<int64_t> mtmp;
  for (size_t d = 0; d < ndims_; ++d) {
    const ValueId* col;
    if (!s.encoded) {
      col = s.dims[d].data();
    } else if (const ValueId* p = s.edims[d].PlainData()) {
      col = p;
    } else {
      dtmp.resize(s.phys);
      s.edims[d].Decode(0, s.phys, dtmp.data());
      col = dtmp.data();
    }
    ZoneOverColumn(col, s.dead, s.phys, &s.dmin[d], &s.dmax[d]);
  }
  for (size_t m = 0; m < nmeas_; ++m) {
    const int64_t* col;
    if (!s.encoded) {
      col = s.meas[m].data();
    } else if (const int64_t* p = s.emeas[m].PlainData()) {
      col = p;
    } else {
      mtmp.resize(s.phys);
      s.emeas[m].Decode(0, s.phys, mtmp.data());
      col = mtmp.data();
    }
    ZoneOverColumn(col, s.dead, s.phys, &s.mmin[m], &s.mmax[m]);
  }
}

void FactTable::CompactSegment(Segment& s) const {
  if (s.dead.empty()) return;
  DecodeSegment(s);
  size_t w = 0;
  for (size_t p = 0; p < s.phys; ++p) {
    if (s.dead[p]) continue;
    if (w != p) {
      for (auto& col : s.dims) col[w] = col[p];
      for (auto& col : s.meas) col[w] = col[p];
    }
    ++w;
  }
  for (auto& col : s.dims) {
    col.resize(w);
    col.shrink_to_fit();
  }
  for (auto& col : s.meas) {
    col.resize(w);
    col.shrink_to_fit();
  }
  s.dead.clear();
  s.live_phys.clear();
  s.dead_count = 0;
  s.phys = w;
  DWRED_CHECK(s.live == w);
  // A compacted sealed segment is re-encoded, like the seal itself.
  if (s.sealed) EncodeSegment(s);
}

void FactTable::RecomputeIndex() {
  starts_.resize(segs_.size());
  size_t rows = 0;
  size_t phys = 0;
  size_t bytes = 0;
  for (size_t s = 0; s < segs_.size(); ++s) {
    starts_[s] = rows;
    rows += segs_[s].live;
    phys += segs_[s].phys;
    bytes += SegmentDataBytesOf(segs_[s]);
  }
  num_rows_ = rows;
  phys_rows_ = phys;
  data_bytes_ = bytes;
}

Status FactTable::EraseRows(const std::vector<bool>& erase) {
  if (erase.size() != num_rows_) {
    return Status::InvalidArgument(
        "EraseRows: bitmap covers " + std::to_string(erase.size()) +
        " rows but the table holds " + std::to_string(num_rows_));
  }
  size_t before = num_rows_;
  std::vector<bool> touched(segs_.size(), false);
  RowId r = 0;
  for (size_t s = 0; s < segs_.size(); ++s) {
    Segment& seg = segs_[s];
    for (size_t p = 0; p < seg.phys; ++p) {
      if (!seg.dead.empty() && seg.dead[p]) continue;
      if (erase[r]) {
        if (seg.dead.empty()) seg.dead.assign(seg.phys, 0);
        seg.dead[p] = 1;
        ++seg.dead_count;
        --seg.live;
        touched[s] = true;
      }
      ++r;
    }
  }
  DWRED_CHECK(r == num_rows_);

  // Apply the per-segment policy: drop empty segments, rewrite segments past
  // the tombstone-ratio threshold, and defer the rest (rebuilding their
  // live-row index and zone maps).
  std::vector<Segment> kept;
  kept.reserve(segs_.size());
  for (size_t s = 0; s < segs_.size(); ++s) {
    Segment& seg = segs_[s];
    if (!touched[s]) {
      kept.push_back(std::move(seg));
      continue;
    }
    if (seg.live == 0) continue;
    if (static_cast<double>(seg.dead_count) >=
        kCompactTombstoneRatio * static_cast<double>(seg.phys)) {
      CompactSegment(seg);
    } else {
      seg.live_phys.clear();
      seg.live_phys.reserve(seg.live);
      for (size_t p = 0; p < seg.phys; ++p) {
        if (!seg.dead[p]) seg.live_phys.push_back(static_cast<uint32_t>(p));
      }
    }
    RecomputeZones(seg);
    kept.push_back(std::move(seg));
  }
  segs_ = std::move(kept);
  RecomputeIndex();
  if (num_rows_ != before) ++content_version_;
  UpdateFootprint(static_cast<int64_t>(num_rows_) -
                  static_cast<int64_t>(before));
  return Status::OK();
}

Result<size_t> FactTable::CompactCells(std::span<const AggFn> aggs) {
  if (aggs.size() != nmeas_) {
    return Status::InvalidArgument(
        "CompactCells: " + std::to_string(aggs.size()) +
        " aggregate functions for " + std::to_string(nmeas_) + " measures");
  }
  // Fold duplicate cells into their first occurrence, preserving
  // first-occurrence logical order. The folded rows live in flat row-major
  // arrays, so only a new cell's index key allocates.
  std::unordered_map<std::vector<ValueId>, size_t, CellKeyHash> first;
  first.reserve(num_rows_);
  std::vector<ValueId> cells;
  std::vector<int64_t> folded;
  std::vector<ValueId> key(ndims_);
  ForEachRow(0, num_rows_, [&](RowId, const RowRef& row) {
    for (size_t d = 0; d < ndims_; ++d) key[d] = row.coord(d);
    auto [it, inserted] = first.try_emplace(key, first.size());
    if (inserted) {
      cells.insert(cells.end(), key.begin(), key.end());
      for (size_t m = 0; m < nmeas_; ++m) folded.push_back(row.measure(m));
    } else {
      int64_t* acc = folded.data() + it->second * nmeas_;
      for (size_t m = 0; m < nmeas_; ++m) {
        acc[m] = CombineMeasure(aggs[m], acc[m], row.measure(m));
      }
    }
  });
  const size_t groups = first.size();
  if (groups == num_rows_) return size_t{0};

  // Rebuild the table from the folded rows (canonical segmentation, no
  // tombstones); report the footprint change in one step.
  size_t before = num_rows_;
  segs_.clear();
  starts_.clear();
  num_rows_ = 0;
  phys_rows_ = 0;
  data_bytes_ = 0;
  for (size_t g = 0; g < groups; ++g) {
    Append(std::span<const ValueId>(cells).subspan(g * ndims_, ndims_),
           std::span<const int64_t>(folded).subspan(g * nmeas_, nmeas_));
  }
  // Append() tracks bytes against reported_bytes_, so the byte gauges are
  // already exact; rows were credited on top of the pre-rebuild contribution,
  // so withdraw that.
  if constexpr (obs::kObsEnabled) {
    RowsGauge().Add(-static_cast<int64_t>(before));
  }
  return before - num_rows_;
}

size_t FactTable::ApproxBytes() const {
  size_t b = sizeof(FactTable) + segs_.capacity() * sizeof(Segment) +
             starts_.capacity() * sizeof(size_t);
  for (const Segment& seg : segs_) {
    for (const auto& col : seg.dims) b += col.capacity() * sizeof(ValueId);
    for (const auto& col : seg.meas) b += col.capacity() * sizeof(int64_t);
    for (const auto& col : seg.edims) b += col.ApproxBytes();
    for (const auto& col : seg.emeas) b += col.ApproxBytes();
    b += seg.dead.capacity();
    b += seg.live_phys.capacity() * sizeof(uint32_t);
    b += (seg.dmin.capacity() + seg.dmax.capacity()) * sizeof(ValueId);
    b += (seg.mmin.capacity() + seg.mmax.capacity()) * sizeof(int64_t);
  }
  return b;
}

MultidimensionalObject FactTable::ToMO(
    const std::string& fact_type,
    const std::vector<std::shared_ptr<Dimension>>& dims,
    const std::vector<MeasureType>& measures) const {
  DWRED_CHECK(dims.size() == ndims_);
  DWRED_CHECK(measures.size() == nmeas_);
  MultidimensionalObject mo(fact_type, dims, measures);
  std::vector<ValueId> coords(ndims_);
  std::vector<int64_t> meas(nmeas_);
  ForEachRow(0, num_rows_, [&](RowId, const RowRef& row) {
    for (size_t d = 0; d < ndims_; ++d) coords[d] = row.coord(d);
    for (size_t m = 0; m < nmeas_; ++m) meas[m] = row.measure(m);
    auto res = mo.AddFact(coords, meas);
    DWRED_CHECK(res.ok());
  });
  return mo;
}

Status FactTable::AppendFrom(const MultidimensionalObject& mo) {
  if (mo.num_dimensions() != ndims_ || mo.num_measures() != nmeas_) {
    return Status::InvalidArgument(
        "AppendFrom: MO shape " + std::to_string(mo.num_dimensions()) + "x" +
        std::to_string(mo.num_measures()) + " does not match table " +
        std::to_string(ndims_) + "x" + std::to_string(nmeas_));
  }
  std::vector<ValueId> coords(ndims_);
  std::vector<int64_t> meas(nmeas_);
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    for (size_t d = 0; d < coords.size(); ++d) {
      coords[d] = mo.Coord(f, static_cast<DimensionId>(d));
    }
    for (size_t m = 0; m < meas.size(); ++m) {
      meas[m] = mo.Measure(f, static_cast<MeasureId>(m));
    }
    Append(coords, meas);
  }
  return Status::OK();
}

}  // namespace dwred
