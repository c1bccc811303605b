// Shared plumbing of the repo benchmark: wall clock, sample statistics,
// the in-memory span recorder, the heap-allocation counter and the
// correctness-gate ledger. Nothing here reaches into src/: every span is
// opened and closed by the benchmark around a call into a public
// function of one layer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Latency samples in nanoseconds; percentiles by nearest rank.
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(std::int64_t ns) { v_.push_back(ns); }
  std::size_t size() const { return v_.size(); }
  const std::vector<std::int64_t>& values() const { return v_; }
  double percentile_us(double q) {
    if (v_.empty()) return 0;
    std::sort(v_.begin(), v_.end());
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(v_.size() - 1) + 0.5);
    return static_cast<double>(v_[std::min(rank, v_.size() - 1)]) / 1e3;
  }

 private:
  std::vector<std::int64_t> v_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// A fixed piece of work, independent of src/, whose wall time follows the
// speed of the core the run is on as other tenants slow it: dependent
// loads over a 1-MiB table (past L1, inside L2), integer mixing and 1-KiB
// copies. About 1 ms per call on a quiet core.
class SpeedProbe {
 public:
  SpeedProbe();
  std::int64_t run_ns();

 private:
  std::vector<std::uint32_t> next_;  // one random cycle over all entries
  std::vector<std::uint8_t> copy_;
  std::uint64_t sink_ = 0;
};

// Heap allocations made through global operator new while counting is
// on (defined in main.cpp, which replaces operator new).
extern bool g_count_allocs;
extern std::uint64_t g_allocs;

// Span names. One per layer boundary the benchmark times.
enum SpanName : std::uint16_t {
  kSpanBurst,        // dp: gateway entry .. last delivery of one burst
  kSpanGateway,      // dataplane: Gateway::process_batch
  kSpanEncode,       // proto: to_packet + encode_packet for one batch
  kSpanDecode,       // proto: decode_packet + to_fast for one inbox
  kSpanRouter,       // dataplane: BorderRouter::process_batch
  kSpanSetupReq,     // cp: ColibriDaemon::open_session
  kSpanRenewReq,     // cp: CServ::renew_eer
  kSpanHandlerPacket,    // cserv: CServ::handle, packet channel
  kSpanHandlerRegistry,  // cserv: CServ::handle, registry channel
  kSpanHandlerKeyfetch,  // cserv: CServ::handle, key-fetch channel
  kSpanHandlerOther,     // cserv: CServ::handle, any other channel
  kSpanAdmission,    // admission: AdmissionBackend::admit_eer/admit_segr
  kSpanWal,          // reservation: LogStorage::append under the WAL
  kSpanPoll,         // telemetry: WindowedSampler::poll + AlertEngine
  kNumSpanNames,
};

const char* span_name(SpanName n);

inline bool is_handler(std::uint16_t n) {
  return n >= kSpanHandlerPacket && n <= kSpanHandlerOther;
}

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t op = 0;          // burst or request id
  std::uint32_t parent = kNone;  // index into the span vector
  std::uint16_t name = 0;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
};

// Keeps every span in memory; written out once at the end of the run.
// When off, begin()/end() cost one branch.
class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  // Id of the burst or request in flight; spans opened without an
  // explicit id inherit it.
  std::uint64_t current_op = 0;
  std::uint64_t next_op() { return ++ops_; }

  std::uint32_t begin(SpanName name) { return begin(name, current_op); }
  std::uint32_t begin(SpanName name, std::uint64_t op) {
    if (!on_) return Span::kNone;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? Span::kNone : stack_.back();
    stack_.push_back(idx);
    s.start = wall_ns();
    spans_.push_back(s);
    return idx;
  }
  void end(std::uint32_t idx) {
    if (idx == Span::kNone) return;
    spans_[idx].end = wall_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Writes one CSV row per span: name,start_ns,end_ns,parent,op.
  bool write_csv(const std::string& path) const;

 private:
  bool on_ = false;
  std::uint64_t ops_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& t, SpanName name) : t_(&t), idx_(t.begin(name)) {}
  ~Scope() { t_->end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::uint32_t idx_;
};

// Correctness gates: every check is counted, the first few failures of
// each gate are printed to stderr, and any failure flips the run's
// `correct` flag. Hot loops count locally and check once per phase.
class Gates {
 public:
  // `detail` is only evaluated into the log on failure.
  bool check(bool ok, const char* gate, const std::string& detail = {});
  bool all_passed() const { return failures_ == 0; }
  void print_summary() const;

 private:
  std::uint64_t failures_ = 0;
  // gate -> (checks, failures)
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_gate_;
};

// Metric sink for the final JSON line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
