#pragma once

// The paper-literal reference model: the test oracle the engine's compiled,
// batched, sharded and subcube-partitioned paths are compared against
// (tests/vm_differential_test.cc). Everything here runs through the tree
// interpreters only, one fact at a time, with no compiled program, no
// column batch, no scan plan and no subcube layout:
//
//  * ReferenceReduce is Definition 2 taken literally — every fact's
//    MaxSpecGran and Cell (reduce/semantics.h), grouped by cell, measures
//    folded with their default aggregate functions;
//  * ReferenceQuery is σ (Definition 5, conservative) through Select with no
//    program, then α (Definition 6, availability) by walking each fact's
//    hierarchies — the semantics of a subcube query (Section 7.3).
//
// Physical fact order is an engine detail (subcube partitioning, cube
// order), so query and synchronization results are compared in the
// order-free CanonicalFacts form.

#include <cstdint>
#include <map>
#include <vector>

#include "mdm/mo.h"
#include "spec/action.h"

namespace dwred::testing {

/// A fact set keyed by cell: facts sharing a cell are folded with their
/// measures' default aggregate functions (Definition 2's grouping), so two
/// fact sets compare equal exactly when they hold the same data per cell.
using CanonicalFacts = std::map<std::vector<ValueId>, std::vector<int64_t>>;

/// Folds every fact of `mo` into `into`.
void Canonicalize(const MultidimensionalObject& mo, CanonicalFacts* into);

/// The canonical form of one MO.
CanonicalFacts Canonical(const MultidimensionalObject& mo);

/// Definition 2 at `now_day`, fact by fact. Output facts appear in the
/// first-occurrence order of their cells, with the names, provenance and
/// responsible action the engine's Reduce records (ReduceOptions defaults):
/// a fact left alone keeps "fact_<id>", a merged group is named after its
/// sorted original constituents ("fact_03"), and the responsible action is
/// the last member's lifting action, else the first member's recorded one.
Result<MultidimensionalObject> ReferenceReduce(
    const MultidimensionalObject& mo, const ReductionSpecification& spec,
    int64_t now_day);

/// α[target]σ[pred](mo) at `now_day`: conservative selection, availability
/// aggregation. A null `pred` selects every fact; a null `target` skips the
/// aggregation (facts keep their cells).
Result<CanonicalFacts> ReferenceQuery(const MultidimensionalObject& mo,
                                      const PredExpr* pred,
                                      const std::vector<CategoryId>* target,
                                      int64_t now_day);

}  // namespace dwred::testing
