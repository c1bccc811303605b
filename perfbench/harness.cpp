#include "harness.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case kSpanBurst: return "dp.burst";
    case kSpanGateway: return "dataplane.gateway.process_batch";
    case kSpanEncode: return "proto.encode";
    case kSpanDecode: return "proto.decode";
    case kSpanRouter: return "dataplane.router.process_batch";
    case kSpanSetupReq: return "cp.open_session";
    case kSpanRenewReq: return "cp.renew_eer";
    case kSpanHandlerPacket: return "cserv.handler.packet";
    case kSpanHandlerRegistry: return "cserv.handler.registry";
    case kSpanHandlerKeyfetch: return "cserv.handler.keyfetch";
    case kSpanHandlerOther: return "cserv.handler.other";
    case kSpanAdmission: return "admission";
    case kSpanWal: return "reservation.wal.append";
    case kSpanPoll: return "telemetry.poll";
    case kNumSpanNames: break;
  }
  return "?";
}

SpeedProbe::SpeedProbe() : next_(std::size_t{1} << 18), copy_(1024) {
  // Sattolo's shuffle with a fixed xorshift: one cycle through the table,
  // the same on every run.
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next_[i], next_[x % i]);
  }
}

std::int64_t SpeedProbe::run_ns() {
  constexpr int kSteps = 1 << 17;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(next_.data());
  const std::size_t span = next_.size() * sizeof(next_[0]) - copy_.size();
  const std::int64_t t0 = wall_ns();
  std::uint32_t i = 0;
  std::uint64_t acc = sink_;
  for (int s = 0; s < kSteps; ++s) {
    i = next_[i];
    acc = (acc + i) * 0x9E3779B97F4A7C15ull;
    acc ^= acc >> 29;
    if ((s & 31) == 0) {
      std::memcpy(copy_.data(), bytes + (acc % span), copy_.size());
      acc += copy_[acc & 1023];
    }
  }
  sink_ = acc;
  return wall_ns() - t0;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,op\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu\n",
                 span_name(static_cast<SpanName>(s.name)),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent == Span::kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

bool Gates::check(bool ok, const char* gate, const std::string& detail) {
  auto& [checks, fails] = by_gate_[gate];
  ++checks;
  if (!ok) {
    ++fails;
    ++failures_;
    if (fails <= 5) {
      std::fprintf(stderr, "GATE FAILED %s: %s\n", gate, detail.c_str());
    }
  }
  return ok;
}

void Gates::print_summary() const {
  for (const auto& [gate, cf] : by_gate_) {
    std::printf("# gate %-34s checks=%llu failures=%llu\n", gate.c_str(),
                static_cast<unsigned long long>(cf.first),
                static_cast<unsigned long long>(cf.second));
  }
}

}  // namespace perfbench
