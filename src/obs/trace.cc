#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "common/strings.h"

namespace dwred::obs {

namespace {

/// The calling thread's causal position. A plain thread_local struct: spans
/// and ScopedTraceContext save/restore it RAII-style, so it always reflects
/// the innermost open (or installed) scope.
thread_local TraceContext t_ctx;

/// Span ids are process-unique and never 0 (0 means "no span").
std::atomic<uint64_t> g_next_span_id{1};

uint64_t AllocateSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceContext CurrentTraceContext() { return t_ctx; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) : prev_(t_ctx) {
  t_ctx = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_ctx = prev_; }

TraceBuffer& TraceBuffer::Global() {
  // Leaked for the same static-teardown reason as MetricsRegistry::Global().
  static TraceBuffer* g = new TraceBuffer();
  return *g;
}

void TraceBuffer::Enable(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.assign(capacity_, TraceEvent{});
  next_ = 0;
  count_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void TraceBuffer::Disable() {
  enabled_.store(false, std::memory_order_release);
}

void TraceBuffer::Record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return;
  ring_[next_] = std::move(ev);
  next_ = (next_ + 1) % capacity_;
  if (count_ < capacity_) ++count_;
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest event sits at next_ once the ring has wrapped.
  size_t start = count_ == capacity_ ? next_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  count_ = 0;
}

std::string TraceBuffer::DumpJsonLines() const {
  std::string out;
  for (const TraceEvent& ev : Snapshot()) {
    out += "{\"name\":\"" + JsonEscape(ev.name) + "\"";
    if (ev.trace_id != 0) {
      out += ",\"trace\":" + std::to_string(ev.trace_id);
      out += ",\"span\":" + std::to_string(ev.span_id);
      out += ",\"parent\":" + std::to_string(ev.parent_id);
    }
    out += ",\"start_us\":" + std::to_string(ev.start_us);
    out += ",\"dur_us\":" + std::to_string(ev.duration_us);
    for (const auto& [key, value] : ev.fields) {
      out += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
    }
    out += "}\n";
  }
  return out;
}

bool TraceBuffer::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::string lines = DumpJsonLines();
  size_t written = std::fwrite(lines.data(), 1, lines.size(), f);
  bool ok = written == lines.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

int64_t TraceBuffer::NowMicros() const {
  if (!enabled()) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceSpan::TraceSpan(std::string name, Histogram* latency)
    : name_(std::move(name)), latency_(latency) {
  Open();
}

void TraceSpan::Open() {
  start_ = std::chrono::steady_clock::now();
  if constexpr (!kObsEnabled) return;
  if (!TraceBuffer::Global().enabled()) return;
  traced_ = true;
  parent_id_ = t_ctx.span_id;
  span_id_ = AllocateSpanId();
  // A root span starts a new trace named after itself; children inherit.
  trace_id_ = t_ctx.trace_id != 0 ? t_ctx.trace_id : span_id_;
  t_ctx = TraceContext{trace_id_, span_id_};
}

TraceSpan::~TraceSpan() {
  if (!ended_) End(std::chrono::steady_clock::now());
}

void TraceSpan::End(std::chrono::steady_clock::time_point end) {
  ended_ = true;
  if constexpr (!kObsEnabled) return;
  double seconds = std::chrono::duration<double>(end - start_).count();
  if (latency_) latency_->Record(seconds);
  if (traced_) {
    // Restore the parent as the thread's position. The span may close on the
    // thread that opened it (RAII guarantees scope nesting per thread), so a
    // plain restore is enough.
    t_ctx = TraceContext{trace_id_, parent_id_};
    if (parent_id_ == 0) t_ctx = TraceContext{};
  }
  TraceBuffer& buf = TraceBuffer::Global();
  if (buf.enabled()) {
    TraceEvent ev;
    ev.name = std::move(name_);
    ev.trace_id = trace_id_;
    ev.span_id = span_id_;
    ev.parent_id = parent_id_;
    ev.duration_us =
        std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
            .count();
    ev.start_us = buf.NowMicros() - ev.duration_us;
    ev.fields = std::move(fields_);
    buf.Record(std::move(ev));
  }
}

void TraceSpan::AddField(const char* key, int64_t value) {
  if (!kObsEnabled || !TraceBuffer::Global().enabled()) return;
  fields_.emplace_back(key, value);
}

void TraceSpan::RecordChild(const char* name, int64_t duration_us) const {
  TraceBuffer& buf = TraceBuffer::Global();
  if (!traced_ || !buf.enabled()) return;
  buf.Record({name, trace_id_, AllocateSpanId(), span_id_,
              buf.NowMicros() - duration_us, duration_us, {}});
}

namespace {

/// Pulls `"key":` out of one JSON-lines object; returns the value token
/// (string contents unescaped for strings, raw digits for numbers). Only
/// handles the flat shape our own writer produces.
bool ExtractField(const std::string& line, const std::string& key,
                  std::string* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    std::string value;
    for (size_t i = pos + 1; i < line.size(); ++i) {
      char c = line[i];
      if (c == '\\' && i + 1 < line.size()) {
        char n = line[++i];
        switch (n) {
          case 'n': value += '\n'; break;
          case 'r': value += '\r'; break;
          case 't': value += '\t'; break;
          default: value += n; break;  // \" \\ and anything else: literal
        }
        continue;
      }
      if (c == '"') {
        *out = std::move(value);
        return true;
      }
      value += c;
    }
    return false;
  }
  size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(pos, end - pos);
  return true;
}

bool ExtractInt(const std::string& line, const std::string& key, int64_t* out) {
  std::string token;
  if (!ExtractField(line, key, &token)) return false;
  return ParseInt64(token, out);
}

}  // namespace

bool ParseTraceJsonLines(const std::string& text,
                         std::vector<TraceEvent>* out) {
  bool any = false;
  for (const std::string& raw : Split(text, '\n')) {
    std::string line = std::string(Trim(raw));
    if (line.empty() || line[0] != '{') continue;
    TraceEvent ev;
    if (!ExtractField(line, "name", &ev.name)) continue;
    int64_t v = 0;
    if (ExtractInt(line, "trace", &v)) ev.trace_id = static_cast<uint64_t>(v);
    if (ExtractInt(line, "span", &v)) ev.span_id = static_cast<uint64_t>(v);
    if (ExtractInt(line, "parent", &v)) ev.parent_id = static_cast<uint64_t>(v);
    ExtractInt(line, "start_us", &ev.start_us);
    ExtractInt(line, "dur_us", &ev.duration_us);
    // Every remaining numeric key is a structured field. Walk the object's
    // keys in order so fields render in their original order.
    size_t pos = 0;
    while ((pos = line.find('"', pos)) != std::string::npos) {
      size_t close = line.find('"', pos + 1);
      if (close == std::string::npos) break;
      std::string key = line.substr(pos + 1, close - pos - 1);
      pos = close + 1;
      if (pos >= line.size() || line[pos] != ':') continue;
      if (key == "name" || key == "trace" || key == "span" ||
          key == "parent" || key == "start_us" || key == "dur_us") {
        continue;
      }
      if (ExtractInt(line, key, &v)) ev.fields.emplace_back(key, v);
    }
    out->push_back(std::move(ev));
    any = true;
  }
  return any;
}

std::string RenderTraceTree(const std::vector<TraceEvent>& events) {
  // Index spans by id; group roots by trace. Events are already "oldest
  // emitted first", but tree order follows start_us (spans *close* inner
  // first, which would render backwards).
  std::map<uint64_t, std::vector<size_t>> children;  // parent span -> events
  std::map<uint64_t, std::vector<size_t>> roots;     // trace -> root events
  std::vector<size_t> untraced;
  std::vector<bool> has_parent(events.size(), false);
  std::map<uint64_t, size_t> by_span;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) by_span[events[i].span_id] = i;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    if (ev.trace_id == 0) {
      untraced.push_back(i);
      continue;
    }
    if (ev.parent_id != 0 && by_span.count(ev.parent_id)) {
      children[ev.parent_id].push_back(i);
      has_parent[i] = true;
    } else {
      roots[ev.trace_id].push_back(i);
    }
  }
  auto by_start = [&](size_t a, size_t b) {
    if (events[a].start_us != events[b].start_us) {
      return events[a].start_us < events[b].start_us;
    }
    return events[a].span_id < events[b].span_id;
  };
  for (auto& [_, v] : children) std::sort(v.begin(), v.end(), by_start);
  for (auto& [_, v] : roots) std::sort(v.begin(), v.end(), by_start);

  std::string out;
  // Guards against parent cycles in malformed input (a span whose ancestor
  // chain reaches itself — possible with duplicate span ids): each event
  // renders at most once, so the recursion always terminates.
  std::vector<bool> rendered(events.size(), false);
  auto render_one = [&](size_t i, const std::string& prefix, bool last,
                        bool top, auto&& self) -> void {
    if (rendered[i]) return;
    rendered[i] = true;
    const TraceEvent& ev = events[i];
    if (!top) {
      out += prefix + (last ? "└─ " : "├─ ");
    }
    out += ev.name + "  " + std::to_string(ev.duration_us) + "us";
    out += "  [span " + std::to_string(ev.span_id);
    if (ev.parent_id != 0 && !has_parent[i]) out += ", parent evicted";
    out += "]";
    for (const auto& [key, value] : ev.fields) {
      out += " " + key + "=" + std::to_string(value);
    }
    out += "\n";
    auto it = children.find(ev.span_id);
    if (it == children.end()) return;
    std::string child_prefix =
        top ? std::string() : prefix + (last ? "   " : "│  ");
    for (size_t c = 0; c < it->second.size(); ++c) {
      self(it->second[c], child_prefix, c + 1 == it->second.size(), false,
           self);
    }
  };
  for (const auto& [trace, root_list] : roots) {
    out += "trace " + std::to_string(trace) + "\n";
    for (size_t r = 0; r < root_list.size(); ++r) {
      render_one(root_list[r], "", r + 1 == root_list.size(), true,
                 render_one);
    }
    out += "\n";
  }
  if (!untraced.empty()) {
    out += "(untraced)\n";
    std::vector<size_t> ordered = untraced;
    std::sort(ordered.begin(), ordered.end(), by_start);
    for (size_t i : ordered) {
      out += "  " + events[i].name + "  " +
             std::to_string(events[i].duration_us) + "us\n";
    }
  }
  return out;
}

}  // namespace dwred::obs
