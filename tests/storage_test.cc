// Columnar fact-table tests: append/read, bulk append, physical deletion,
// cell compaction and the cell fold under it, byte accounting, and MO round
// trips.

#include "storage/fact_table.h"

#include <stdlib.h>

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "mdm/paper_example.h"
#include "obs/metrics.h"
#include "storage/group_index.h"

namespace dwred {
namespace {

TEST(FactTableTest, AppendAndRead) {
  FactTable t(2, 3);
  std::vector<ValueId> c1 = {1, 2};
  std::vector<int64_t> m1 = {10, 20, 30};
  EXPECT_EQ(t.Append(c1, m1), 0u);
  std::vector<ValueId> c2 = {3, 4};
  std::vector<int64_t> m2 = {40, 50, 60};
  EXPECT_EQ(t.Append(c2, m2), 1u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Coord(0, 1), 2u);
  EXPECT_EQ(t.Measure(1, 2), 60);
  ValueId buf[2];
  t.ReadCoords(1, buf);
  EXPECT_EQ(buf[0], 3u);
  EXPECT_EQ(buf[1], 4u);
}

TEST(FactTableTest, EraseRowsCompacts) {
  FactTable t(1, 1);
  for (int i = 0; i < 10; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  std::vector<bool> erase(10, false);
  erase[0] = erase[3] = erase[9] = true;
  ASSERT_TRUE(t.EraseRows(erase).ok());
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.Coord(0, 0), 1u);
  EXPECT_EQ(t.Coord(2, 0), 4u);
  EXPECT_EQ(t.Measure(6, 0), 8);
}

TEST(FactTableTest, EraseRowsRejectsStaleBitmap) {
  FactTable t(1, 1);
  for (int i = 0; i < 4; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  std::vector<bool> too_short(3, true);
  Status s = t.EraseRows(too_short);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::vector<bool> too_long(5, true);
  s = t.EraseRows(too_long);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The failed calls must not have touched the rows.
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST(FactTableTest, CompactCellsRejectsAggArityMismatch) {
  FactTable t(1, 2);
  std::vector<ValueId> c = {1};
  std::vector<int64_t> m = {1, 2};
  t.Append(c, m);
  std::vector<AggFn> one_agg = {AggFn::kSum};
  EXPECT_EQ(t.CompactCells(one_agg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(FactTableTest, AppendFromRejectsShapeMismatch) {
  IspExample ex = MakeIspExample();
  FactTable narrow(1, 4);
  EXPECT_EQ(narrow.AppendFrom(*ex.mo).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(narrow.num_rows(), 0u);
  FactTable wrong_meas(2, 1);
  EXPECT_EQ(wrong_meas.AppendFrom(*ex.mo).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(wrong_meas.num_rows(), 0u);
}

TEST(FactTableTest, CompactCellsFoldsDuplicates) {
  FactTable t(2, 2);
  std::vector<AggFn> aggs = {AggFn::kSum, AggFn::kMax};
  std::vector<ValueId> a = {1, 1};
  std::vector<ValueId> b = {1, 2};
  std::vector<int64_t> m1 = {5, 5};
  std::vector<int64_t> m2 = {7, 7};
  std::vector<int64_t> m3 = {1, 1};
  t.Append(a, m1);
  t.Append(b, m2);
  t.Append(a, m3);
  ASSERT_TRUE(t.CompactCells(aggs).ok());
  ASSERT_EQ(t.num_rows(), 2u);
  // Row for cell (1,1): sum 6, max 5.
  EXPECT_EQ(t.Measure(0, 0), 6);
  EXPECT_EQ(t.Measure(0, 1), 5);
  EXPECT_EQ(t.Measure(1, 0), 7);
}

TEST(FactTableTest, CompactIsNoopWithoutDuplicates) {
  FactTable t(1, 1);
  std::vector<AggFn> aggs = {AggFn::kSum};
  for (int i = 0; i < 5; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  ASSERT_TRUE(t.CompactCells(aggs).ok());
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(FactTableTest, BytesAccounting) {
  FactTable t(2, 4);
  EXPECT_EQ(t.Bytes(), 0u);
  std::vector<ValueId> c = {0, 0};
  std::vector<int64_t> m = {0, 0, 0, 0};
  t.Append(c, m);
  EXPECT_EQ(t.Bytes(), 2 * sizeof(ValueId) + 4 * sizeof(int64_t));
}

TEST(FactTableTest, EraseRowsOnEmptyTable) {
  FactTable t(2, 1);
  EXPECT_TRUE(t.EraseRows({}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_segments(), 0u);
  // A sized bitmap against an empty table is stale.
  EXPECT_EQ(t.EraseRows(std::vector<bool>(1, true)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FactTableTest, EraseEveryRowDropsAllSegments) {
  FactTable t(1, 1, /*segment_rows=*/4);
  for (int i = 0; i < 10; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  ASSERT_EQ(t.num_segments(), 3u);
  ASSERT_TRUE(t.EraseRows(std::vector<bool>(10, true)).ok());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_segments(), 0u);
  EXPECT_EQ(t.Bytes(), 0u);
  // The table must be appendable again afterwards.
  std::vector<ValueId> c = {7};
  std::vector<int64_t> m = {7};
  EXPECT_EQ(t.Append(c, m), 0u);
  EXPECT_EQ(t.Coord(0, 0), 7u);
}

TEST(FactTableTest, SegmentSealingAndCrossBoundaryReads) {
  FactTable t(1, 1, /*segment_rows=*/3);
  for (int i = 0; i < 8; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(100 + i)};
    std::vector<int64_t> m = {i * 10};
    EXPECT_EQ(t.Append(c, m), static_cast<RowId>(i));
  }
  ASSERT_EQ(t.num_segments(), 3u);
  EXPECT_TRUE(t.SegmentSealed(0));
  EXPECT_TRUE(t.SegmentSealed(1));
  EXPECT_FALSE(t.SegmentSealed(2));  // tail: 2 of 3 rows
  EXPECT_EQ(t.SegmentBegin(1), 3u);
  EXPECT_EQ(t.SegmentBegin(2), 6u);
  // Logical ids address across segment boundaries transparently.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(t.Coord(i, 0), static_cast<ValueId>(100 + i));
    EXPECT_EQ(t.Measure(i, 0), i * 10);
  }
  // The cursor visits the same rows in the same order.
  std::vector<ValueId> seen;
  t.ForEachRow(2, 7, [&](RowId r, const FactTable::RowRef& row) {
    EXPECT_EQ(row.coord(0), static_cast<ValueId>(100 + r));
    seen.push_back(row.coord(0));
  });
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen.front(), 102u);
  EXPECT_EQ(seen.back(), 106u);
}

TEST(FactTableTest, CompactCellsAcrossSegmentBoundaries) {
  FactTable t(1, 1, /*segment_rows=*/2);
  std::vector<AggFn> aggs = {AggFn::kSum};
  // Duplicates of cell 5 land in three different segments.
  ValueId cs[] = {5, 1, 2, 5, 3, 5};
  for (int i = 0; i < 6; ++i) {
    std::vector<ValueId> c = {cs[i]};
    std::vector<int64_t> m = {1};
    t.Append(c, m);
  }
  ASSERT_EQ(t.num_segments(), 3u);
  auto folded = t.CompactCells(aggs);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded.value(), 2u);
  ASSERT_EQ(t.num_rows(), 4u);
  // First-occurrence order survives the rebuild; cell 5 folded 1+1+1.
  EXPECT_EQ(t.Coord(0, 0), 5u);
  EXPECT_EQ(t.Measure(0, 0), 3);
  EXPECT_EQ(t.Coord(1, 0), 1u);
  EXPECT_EQ(t.Coord(2, 0), 2u);
  EXPECT_EQ(t.Coord(3, 0), 3u);
  // The rebuild re-segments canonically: no tombstones anywhere.
  for (size_t s = 0; s < t.num_segments(); ++s) {
    EXPECT_EQ(t.SegmentTombstones(s), 0u);
  }
}

TEST(FactTableTest, ZoneMapsTrackAppends) {
  FactTable t(2, 1, /*segment_rows=*/4);
  ValueId ds[][2] = {{5, 9}, {3, 7}, {8, 2}, {6, 6}};
  for (auto& d : ds) {
    std::vector<ValueId> c = {d[0], d[1]};
    std::vector<int64_t> m = {static_cast<int64_t>(d[0]) - d[1]};
    t.Append(c, m);
  }
  ASSERT_EQ(t.num_segments(), 1u);
  EXPECT_EQ(t.SegmentDimMin(0, 0), 3u);
  EXPECT_EQ(t.SegmentDimMax(0, 0), 8u);
  EXPECT_EQ(t.SegmentDimMin(0, 1), 2u);
  EXPECT_EQ(t.SegmentDimMax(0, 1), 9u);
  EXPECT_EQ(t.SegmentMeasureMin(0, 0), -4);
  EXPECT_EQ(t.SegmentMeasureMax(0, 0), 6);
}

TEST(FactTableTest, ZoneMapsShrinkAfterEraseAndCompact) {
  // 8 rows in one segment; erasing the extremes must tighten the zone maps
  // whether the segment compacts (ratio >= 0.25) or defers tombstones.
  FactTable deferred(1, 1, /*segment_rows=*/16);
  FactTable compacted(1, 1, /*segment_rows=*/16);
  for (int i = 0; i < 8; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    deferred.Append(c, m);
    compacted.Append(c, m);
  }
  // One tombstone out of 8 (ratio 0.125 < 0.25): deferred.
  std::vector<bool> one(8, false);
  one[0] = true;
  ASSERT_TRUE(deferred.EraseRows(one).ok());
  ASSERT_EQ(deferred.num_segments(), 1u);
  EXPECT_EQ(deferred.SegmentTombstones(0), 1u);
  EXPECT_EQ(deferred.SegmentLiveRows(0), 7u);
  EXPECT_EQ(deferred.SegmentPhysicalRows(0), 8u);
  EXPECT_EQ(deferred.SegmentDimMin(0, 0), 1u);  // zone excludes the tombstone
  EXPECT_EQ(deferred.SegmentMeasureMin(0, 0), 1);
  // Logical reads skip the tombstone.
  EXPECT_EQ(deferred.Coord(0, 0), 1u);
  EXPECT_EQ(deferred.Measure(6, 0), 7);

  // Four tombstones out of 8 (ratio 0.5 >= 0.25): compacted in place.
  std::vector<bool> four(8, false);
  four[0] = four[1] = four[6] = four[7] = true;
  ASSERT_TRUE(compacted.EraseRows(four).ok());
  ASSERT_EQ(compacted.num_segments(), 1u);
  EXPECT_EQ(compacted.SegmentTombstones(0), 0u);
  EXPECT_EQ(compacted.SegmentLiveRows(0), 4u);
  EXPECT_EQ(compacted.SegmentPhysicalRows(0), 4u);
  EXPECT_EQ(compacted.SegmentDimMin(0, 0), 2u);
  EXPECT_EQ(compacted.SegmentDimMax(0, 0), 5u);
  EXPECT_EQ(compacted.SegmentMeasureMax(0, 0), 5);
  // Byte accounting follows the physical rows.
  EXPECT_EQ(compacted.Bytes(), 4 * (sizeof(ValueId) + sizeof(int64_t)));
  EXPECT_EQ(deferred.Bytes(), 8 * (sizeof(ValueId) + sizeof(int64_t)));
}

TEST(FactTableTest, ErasingIntoTombstonedSegmentStaysConsistent) {
  FactTable t(1, 1, /*segment_rows=*/16);
  for (int i = 0; i < 16; ++i) {
    std::vector<ValueId> c = {static_cast<ValueId>(i)};
    std::vector<int64_t> m = {i};
    t.Append(c, m);
  }
  // First erase: 2/16 dead (deferred).
  std::vector<bool> e1(16, false);
  e1[3] = e1[12] = true;
  ASSERT_TRUE(t.EraseRows(e1).ok());
  ASSERT_EQ(t.num_rows(), 14u);
  EXPECT_EQ(t.SegmentTombstones(0), 2u);
  // Second erase addresses *logical* ids over the surviving rows: kill the
  // new row 0 (value 0) and row 13 (value 15) → 4/16 dead, ratio 0.25 →
  // compaction.
  std::vector<bool> e2(14, false);
  e2[0] = e2[13] = true;
  ASSERT_TRUE(t.EraseRows(e2).ok());
  ASSERT_EQ(t.num_rows(), 12u);
  EXPECT_EQ(t.SegmentTombstones(0), 0u);
  EXPECT_EQ(t.SegmentPhysicalRows(0), 12u);
  EXPECT_EQ(t.SegmentDimMin(0, 0), 1u);
  EXPECT_EQ(t.SegmentDimMax(0, 0), 14u);
  std::vector<ValueId> expect = {1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14};
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(t.Coord(i, 0), expect[i]);
  }
}

TEST(FactTableTest, SegmentRowsFromEnvironment) {
  // Restores the variable on scope exit so later tests see the default.
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("DWRED_SEGMENT_ROWS"); }
  } guard;

  // A valid value becomes the default row budget of env-configured tables.
  ::setenv("DWRED_SEGMENT_ROWS", "32", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), 32u);
  // Whitespace is tolerated (the DWRED_THREADS convention).
  ::setenv("DWRED_SEGMENT_ROWS", "  64 ", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), 64u);
  // An explicit constructor budget always wins over the environment.
  EXPECT_EQ(FactTable(1, 1, /*segment_rows=*/8).segment_rows(), 8u);
  // Garbage falls back to the default with a warning.
  ::setenv("DWRED_SEGMENT_ROWS", "banana", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kDefaultSegmentRows);
  // Out-of-range values clamp to the validation bounds.
  ::setenv("DWRED_SEGMENT_ROWS", "1", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kMinSegmentRows);
  ::setenv("DWRED_SEGMENT_ROWS", "99999999999", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kMaxSegmentRows);
  // Empty/unset means the built-in default.
  ::setenv("DWRED_SEGMENT_ROWS", "", /*overwrite=*/1);
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kDefaultSegmentRows);
  ::unsetenv("DWRED_SEGMENT_ROWS");
  EXPECT_EQ(FactTable(1, 1).segment_rows(), FactTable::kDefaultSegmentRows);

  // The env budget really governs sealing.
  ::setenv("DWRED_SEGMENT_ROWS", "16", /*overwrite=*/1);
  FactTable t(1, 1);
  std::vector<ValueId> c(1);
  std::vector<int64_t> m(1);
  for (int i = 0; i < 40; ++i) {
    c[0] = static_cast<ValueId>(i);
    m[0] = i;
    t.Append(c, m);
  }
  EXPECT_EQ(t.num_segments(), 3u);
  EXPECT_TRUE(t.SegmentSealed(0));
  EXPECT_EQ(t.SegmentLiveRows(0), 16u);
}

TEST(FactTableTest, MoRoundTrip) {
  IspExample ex = MakeIspExample();
  FactTable t(2, 4);
  ASSERT_TRUE(t.AppendFrom(*ex.mo).ok());
  EXPECT_EQ(t.num_rows(), 7u);
  MultidimensionalObject back =
      t.ToMO("Click", ex.mo->dimensions(),
             std::vector<MeasureType>(ex.mo->measure_types()));
  ASSERT_EQ(back.num_facts(), 7u);
  for (FactId f = 0; f < 7; ++f) {
    EXPECT_EQ(back.Coord(f, 0), ex.mo->Coord(f, 0));
    EXPECT_EQ(back.Coord(f, 1), ex.mo->Coord(f, 1));
    EXPECT_EQ(back.Measure(f, 1), ex.mo->Measure(f, 1));
  }
}

// The five process-wide footprint gauges every live FactTable reports to.
std::vector<int64_t> StorageGauges() {
  std::vector<int64_t> out;
  for (const char* name :
       {"dwred_storage_fact_rows", "dwred_storage_fact_bytes",
        "dwred_storage_bytes_row", "dwred_storage_bytes_columnar",
        "dwred_storage_bytes_saved"}) {
    out.push_back(obs::MetricsRegistry::Global().GetGauge(name).Value());
  }
  return out;
}

// Same logical rows, same segment manifest (seals, encodings, zone maps,
// tombstones), same byte accounting and content version.
void ExpectSameTable(const FactTable& a, const FactTable& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.content_version(), b.content_version());
  EXPECT_EQ(a.Bytes(), b.Bytes());
  EXPECT_EQ(a.RowEquivalentBytes(), b.RowEquivalentBytes());
  for (RowId r = 0; r < a.num_rows(); ++r) {
    for (size_t d = 0; d < a.num_dims(); ++d) {
      ASSERT_EQ(a.Coord(r, d), b.Coord(r, d)) << "row " << r;
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      ASSERT_EQ(a.Measure(r, m), b.Measure(r, m)) << "row " << r;
    }
  }
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (size_t s = 0; s < a.num_segments(); ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    EXPECT_EQ(a.SegmentBegin(s), b.SegmentBegin(s));
    EXPECT_EQ(a.SegmentLiveRows(s), b.SegmentLiveRows(s));
    EXPECT_EQ(a.SegmentPhysicalRows(s), b.SegmentPhysicalRows(s));
    EXPECT_EQ(a.SegmentTombstones(s), b.SegmentTombstones(s));
    EXPECT_EQ(a.SegmentSealed(s), b.SegmentSealed(s));
    EXPECT_EQ(a.SegmentEncoded(s), b.SegmentEncoded(s));
    EXPECT_EQ(a.SegmentBytes(s), b.SegmentBytes(s));
    for (size_t d = 0; d < a.num_dims(); ++d) {
      EXPECT_EQ(a.SegmentDimEncoding(s, d), b.SegmentDimEncoding(s, d));
      EXPECT_EQ(a.SegmentDimMin(s, d), b.SegmentDimMin(s, d));
      EXPECT_EQ(a.SegmentDimMax(s, d), b.SegmentDimMax(s, d));
    }
    for (size_t m = 0; m < a.num_measures(); ++m) {
      EXPECT_EQ(a.SegmentMeasureEncoding(s, m), b.SegmentMeasureEncoding(s, m));
      EXPECT_EQ(a.SegmentMeasureMin(s, m), b.SegmentMeasureMin(s, m));
      EXPECT_EQ(a.SegmentMeasureMax(s, m), b.SegmentMeasureMax(s, m));
    }
  }
}

// AppendRows is n Append calls in one: on an empty table and on one whose
// unsealed tail carries tombstones, with a segment budget small enough that
// one batch crosses several seals (and runs that compress differently).
TEST(FactTableTest, AppendRowsEqualsRepeatedAppend) {
  std::mt19937_64 rng(7);
  const size_t n = 150;
  std::vector<ValueId> cells(n * 3);
  std::vector<int64_t> meas(n * 2);
  for (size_t i = 0; i < n; ++i) {
    cells[i * 3] = static_cast<ValueId>(i / 40);  // runs: RLE-friendly
    cells[i * 3 + 1] = static_cast<ValueId>(rng() % 5);
    cells[i * 3 + 2] = static_cast<ValueId>(rng() % 100000);
    meas[i * 2] = static_cast<int64_t>(rng() % 1000) - 500;
    meas[i * 2 + 1] = static_cast<int64_t>(rng());
  }
  for (bool tombstoned_tail : {false, true}) {
    SCOPED_TRACE(tombstoned_tail ? "tombstoned tail" : "empty table");
    FactTable one(3, 2, /*segment_rows=*/16);
    FactTable bulk(3, 2, /*segment_rows=*/16);
    if (tombstoned_tail) {
      // 24 rows: one sealed segment and an 8-row tail, one tail row erased
      // (under the rewrite threshold, so it stays a tombstone).
      for (size_t i = 0; i < 24; ++i) {
        std::span<const ValueId> c(cells.data() + i * 3, 3);
        std::span<const int64_t> m(meas.data() + i * 2, 2);
        one.Append(c, m);
        bulk.Append(c, m);
      }
      std::vector<bool> erase(24, false);
      erase[21] = true;
      ASSERT_TRUE(one.EraseRows(erase).ok());
      ASSERT_TRUE(bulk.EraseRows(erase).ok());
      ASSERT_EQ(one.SegmentTombstones(one.num_segments() - 1), 1u);
    }
    const std::vector<int64_t> g_before = StorageGauges();
    for (size_t i = 0; i < n; ++i) {
      one.Append(std::span<const ValueId>(cells.data() + i * 3, 3),
                 std::span<const int64_t>(meas.data() + i * 2, 2));
    }
    const std::vector<int64_t> g_one = StorageGauges();
    bulk.AppendRows(cells, meas);
    const std::vector<int64_t> g_both = StorageGauges();
    ExpectSameTable(one, bulk);
    EXPECT_GT(bulk.num_segments(), 5u);
    // Each table moved every gauge by the same amount.
    for (size_t k = 0; k < g_before.size(); ++k) {
      EXPECT_EQ(g_one[k] - g_before[k], g_both[k] - g_one[k]) << "gauge " << k;
    }
  }
}

// A vector-keyed first-occurrence fold: the specification CompactCells must
// match row for row.
std::vector<std::pair<std::vector<ValueId>, std::vector<int64_t>>>
ReferenceCompact(const FactTable& t, const std::vector<AggFn>& aggs) {
  std::vector<std::pair<std::vector<ValueId>, std::vector<int64_t>>> out;
  std::map<std::vector<ValueId>, size_t> first;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    std::vector<ValueId> cell(t.num_dims());
    for (size_t d = 0; d < cell.size(); ++d) cell[d] = t.Coord(r, d);
    std::vector<int64_t> meas(t.num_measures());
    for (size_t m = 0; m < meas.size(); ++m) meas[m] = t.Measure(r, m);
    auto [it, inserted] = first.emplace(cell, out.size());
    if (inserted) {
      out.emplace_back(std::move(cell), std::move(meas));
      continue;
    }
    std::vector<int64_t>& acc = out[it->second].second;
    for (size_t m = 0; m < meas.size(); ++m) {
      acc[m] = CombineMeasure(aggs[m], acc[m], meas[m]);
    }
  }
  return out;
}

// CompactCells under SUM, MIN and MAX equals the reference fold: over 768
// distinct cells (the 1024-slot index would grow past that; the fold is
// sized from the row count), cells of four full-range coordinates (too wide
// for a 64-bit packed key), and input segments with tombstones.
TEST(FactTableTest, CompactCellsEqualsReferenceFold) {
  std::mt19937_64 rng(11);
  const std::vector<AggFn> aggs = {AggFn::kSum, AggFn::kMin, AggFn::kMax};
  // 1,200 distinct wide cells, each drawn 1-4 times in random order.
  std::vector<std::vector<ValueId>> pool;
  for (size_t i = 0; i < 1200; ++i) {
    pool.push_back({static_cast<ValueId>(rng()), static_cast<ValueId>(rng()),
                    static_cast<ValueId>(i), static_cast<ValueId>(rng())});
  }
  FactTable t(4, 3, /*segment_rows=*/64);
  for (size_t i = 0; i < 3000; ++i) {
    const std::vector<ValueId>& c = pool[rng() % pool.size()];
    const int64_t v = static_cast<int64_t>(rng() % 2001) - 1000;
    const std::vector<int64_t> m = {v, v, v};
    t.Append(c, m);
  }
  std::vector<bool> erase(t.num_rows(), false);
  for (size_t r = 0; r < erase.size(); r += 7) erase[r] = true;
  ASSERT_TRUE(t.EraseRows(erase).ok());
  size_t tombstoned = 0;
  for (size_t s = 0; s < t.num_segments(); ++s) {
    tombstoned += t.SegmentTombstones(s) > 0 ? 1 : 0;
  }
  ASSERT_GT(tombstoned, 0u);

  const auto want = ReferenceCompact(t, aggs);
  ASSERT_GT(want.size(), 768u);
  const size_t before = t.num_rows();
  const uint64_t version = t.content_version();
  auto folded = t.CompactCells(aggs);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded.value(), before - want.size());
  EXPECT_EQ(t.content_version(), version + want.size());
  ASSERT_EQ(t.num_rows(), want.size());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (size_t d = 0; d < 4; ++d) {
      ASSERT_EQ(t.Coord(r, d), want[r].first[d]) << "row " << r;
    }
    for (size_t m = 0; m < 3; ++m) {
      ASSERT_EQ(t.Measure(r, m), want[r].second[m]) << "row " << r;
    }
  }
  for (size_t s = 0; s < t.num_segments(); ++s) {
    EXPECT_EQ(t.SegmentTombstones(s), 0u);
  }
}

// The fold grows its index past the initial 1,024 slots when it is sized
// for fewer rows than it receives, and keeps first-occurrence ids across
// every rehash.
TEST(CellFoldTest, GrowsPastItsSizingAndKeepsFirstOccurrence) {
  const std::vector<AggFn> aggs = {AggFn::kSum};
  storage::CellFold fold(2, aggs, /*expected_rows=*/0);
  for (int pass = 0; pass < 2; ++pass) {
    for (ValueId i = 0; i < 5000; ++i) {
      const ValueId cell[2] = {i % 97, i};
      const int64_t m = i;
      fold.Add(cell, &m);
    }
  }
  ASSERT_EQ(fold.size(), 5000u);
  for (ValueId i = 0; i < 5000; ++i) {
    EXPECT_EQ(fold.cells()[i * 2], i % 97);
    EXPECT_EQ(fold.cells()[i * 2 + 1], i);
    EXPECT_EQ(fold.measures()[i], 2 * static_cast<int64_t>(i));
  }
}

// Distinct keys whose tags collide are told apart by eq.
TEST(GroupIndexTest, TagCollisionsAreResolvedByEq) {
  storage::GroupIndex index;
  const std::vector<int> keys = {10, 20, 30};
  std::vector<int> ids_key;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k : keys) {
      uint32_t& slot = index.Slot(
          /*tag=*/42, [&](uint32_t id) { return ids_key[id] == k; });
      if (slot == storage::GroupIndex::kEmpty) {
        slot = static_cast<uint32_t>(ids_key.size());
        ids_key.push_back(k);
      } else {
        EXPECT_EQ(ids_key[slot], k);
      }
    }
  }
  EXPECT_EQ(ids_key, keys);
}

}  // namespace
}  // namespace dwred
