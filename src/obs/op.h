#pragma once

// The one instrumentation scope of an engine operation or served request
// (docs/OBSERVABILITY.md). An obs::Op is the operation's span — ids,
// thread-local trace context, one latency histogram — and derives the rest
// when it closes: the total, outcome and row budget of the profile, and the
// flight-recorder (slow-log) entry.
//
//   obs::Op op("subcube.query", latency, profile);
//   ...  op.Stage("lookup");
//   if (!s.ok()) return op.Fail(runtime::CountAbort(s));
//
// Stage(name) closes the lap since the previous stage (or the open), so the
// top-level stages tile the operation; with the TraceBuffer on, each stage is
// also a child span. An Op opened while another is open on the same thread
// (an engine call under a served request) is nested: it hands its profile to
// the enclosing Op on close. Only a root Op reaches the flight recorder, so a
// slow served request is one entry. A slice Op is one evaluation of a
// fan-out (a subcube subquery, possibly on a pool thread); its stages and
// wall time land in the parent profile's SubcubeProfile.
//
// DWRED_PROFILE_DISABLED is read once, in the constructor: when set, no
// profile is filled and nothing reaches the slow log; the span and the
// histogram stay.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace dwred::obs {

class Op : public TraceSpan {
 public:
  /// Opens operation `name`, profiling into `profile` (EXPLAIN) when given,
  /// else into a private profile the slow log still sees.
  Op(std::string name, Histogram& latency, OpProfile* profile = nullptr);
  /// Opens one slice of a fan-out; `slice` is null when the parent does not
  /// profile.
  Op(std::string name, Histogram& latency, SubcubeProfile* slice);
  ~Op();

  /// Closes the lap since the previous stage (or the open) as `name`.
  void Stage(const char* name);

  /// A span field that is also a profile counter.
  void AddCounter(const char* key, int64_t value) {
    AddField(key, value);
    if (prof_ != nullptr) prof_->AddCounter(key, value);
  }

  /// Marks the operation failed (no-op for OK); returns `s`.
  Status Fail(Status s) {
    if (!s.ok()) failed_ = s.code();
    return s;
  }

  /// The profile being filled; null when profiling is off and for slices.
  OpProfile* profile() const { return prof_; }

 private:
  using Clock = std::chrono::steady_clock;

  Op* const enclosing_;  ///< the Op open on this thread at construction
  SubcubeProfile* const slice_;
  OpProfile local_;
  OpProfile* prof_ = nullptr;
  std::vector<StageTime>* stages_;
  Clock::time_point lap_;
  StatusCode failed_ = StatusCode::kOk;
};

}  // namespace dwred::obs
