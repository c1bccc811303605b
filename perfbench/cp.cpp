// Control-plane phases: EEReq setup through ColibriDaemon::open_session
// (closed and open loop) and the correlated renewal storm through
// CServ::renew_eer.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "colibri/telemetry/audit.hpp"

namespace perfbench {
namespace {

using namespace colibri;

// Issues one open_session; returns false on failure.
bool open_one(Bed& bed, EerRef& eer, Tracer& tracer) {
  tracer.current_op = tracer.next_op();
  auto r = [&] {
    Scope s(tracer, kSpanSetupReq);
    return bed.tb().daemon(eer.src).open_session(
        eer.dst, bed.next_host(), bed.next_host(), eer.bw, eer.bw);
  }();
  if (!r.ok()) return false;
  eer.key = r.value().key();
  eer.bw = r.value().bw_kbps();
  eer.version = r.value().version();
  eer.exp = r.value().exp_time();
  return true;
}

// Phase-wide deltas of the bus byte counter and the allocation counter.
class PhaseDeltas {
 public:
  explicit PhaseDeltas(Bed& bed)
      : bed_(&bed), bus0_(bed.tb().bus().snapshot().bytes), allocs0_(g_allocs),
        start_(wall_ns()) {}
  void finish(CpResult& res) const {
    res.wall_s = static_cast<double>(wall_ns() - start_) / 1e9;
    res.bus_bytes = bed_->tb().bus().snapshot().bytes - bus0_;
    res.allocs = g_allocs - allocs0_;
  }
  std::int64_t start() const { return start_; }

 private:
  Bed* bed_;
  std::uint64_t bus0_;
  std::uint64_t allocs0_;
  std::int64_t start_;
};

void check_all_ok(const CpResult& res, const char* gate, const char* what,
                  Gates& gates) {
  gates.check(res.failed == 0, gate,
              std::to_string(res.failed) + " of " +
                  std::to_string(res.attempted) + " " + what + " failed");
}

}  // namespace

std::vector<EerRef> warm_up(Bed& bed, Gates& gates) {
  Tracer off;
  std::vector<EerRef> eers;
  for (const auto& [src, dst] : bed.pairs()) {
    EerRef eer{src, dst, {}, 10, 0, 0};
    if (gates.check(open_one(bed, eer, off), "cp.warmup_setup_ok",
                    src.to_string() + "->" + dst.to_string())) {
      eers.push_back(eer);
    }
  }
  return eers;
}

CpResult populate(Bed& bed, const std::vector<EerRef>& plan, Tracer& tracer,
                  std::vector<EerRef>& out, Gates& gates) {
  CpResult res;
  res.latency.reserve(plan.size());
  out.reserve(out.size() + plan.size());
  const PhaseDeltas deltas(bed);
  for (const EerRef& p : plan) {
    EerRef eer = p;
    const std::int64_t t0 = wall_ns();
    const bool ok = open_one(bed, eer, tracer);
    const std::int64_t t1 = wall_ns();
    ++res.attempted;
    if (!ok) {
      ++res.failed;
      continue;
    }
    res.latency.add(t1 - t0);
    out.push_back(eer);
  }
  deltas.finish(res);
  check_all_ok(res, "cp.setup_all_admitted", "EEReqs", gates);
  return res;
}

Monitor::Monitor(Bed& bed)
    : clock_(&bed.clock()),
      sampler_(bed.registry(), bed.clock()),
      alerts_(sampler_, bed.clock()),
      next_poll_(bed.clock().raw()) {
  alerts_.add_rules(cserv::default_cserv_alert_rules());
}

void Monitor::maybe_poll(CpResult& res, Tracer& tracer) {
  if (clock_->raw() < next_poll_) return;
  const bool counting = g_count_allocs;
  g_count_allocs = false;  // cp.allocs_per_req counts requests only
  const std::int64_t t0 = wall_ns();
  {
    Scope s(tracer, kSpanPoll);
    sampler_.poll();
    alerts_.evaluate();
  }
  res.poll_ns += wall_ns() - t0;
  ++res.polls;
  g_count_allocs = counting;
  next_poll_ = clock_->raw() + kNsPerSec;
}

CpResult open_loop_setups(Bed& bed, double rate_per_s, double duration_s,
                          BwKbps bw, Rng& rng, Monitor& monitor,
                          Tracer& tracer, std::vector<EerRef>& out,
                          Gates& gates) {
  CpResult res;
  // Seeded Poisson arrivals, as offsets from the phase start.
  std::vector<std::int64_t> due;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  res.latency.reserve(due.size());
  res.gen_lag.reserve(due.size());
  res.due_latency.reserve(due.size());
  out.reserve(out.size() + due.size());

  const auto& pairs = bed.pairs();
  const TimeNs sim0 = bed.clock().raw();
  const PhaseDeltas deltas(bed);
  for (std::size_t i = 0; i < due.size(); ++i) {
    const std::int64_t due_wall = deltas.start() + due[i];
    while (wall_ns() < due_wall) {
    }
    bed.clock().set(sim0 + due[i]);
    monitor.maybe_poll(res, tracer);
    const auto& [src, dst] = pairs[i % pairs.size()];
    EerRef eer{src, dst, {}, bw, 0, 0};
    const std::int64_t t0 = wall_ns();
    res.gen_lag.add(t0 - due_wall);
    const bool ok = open_one(bed, eer, tracer);
    const std::int64_t t1 = wall_ns();
    ++res.attempted;
    if (!ok) {
      ++res.failed;
      continue;
    }
    res.latency.add(t1 - t0);
    res.due_latency.add(t1 - due_wall);
    out.push_back(eer);
  }
  bed.clock().set(sim0 + static_cast<TimeNs>(duration_s * 1e9));
  deltas.finish(res);
  check_all_ok(res, "cp.setup_all_admitted", "EEReqs", gates);
  return res;
}

CpResult renewal_storm(Bed& bed, std::vector<EerRef>& eers, Rng& rng,
                       Tracer& tracer, Gates& gates) {
  CpResult res;
  std::vector<std::size_t> order(eers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  res.latency.reserve(eers.size());
  std::vector<bool> renewed(eers.size(), false);

  const PhaseDeltas deltas(bed);
  for (const std::size_t idx : order) {
    EerRef& eer = eers[idx];
    tracer.current_op = tracer.next_op();
    const std::int64_t t0 = wall_ns();
    auto r = [&] {
      Scope s(tracer, kSpanRenewReq);
      return bed.tb().cserv(eer.src).renew_eer(eer.key, eer.bw, eer.bw);
    }();
    const std::int64_t t1 = wall_ns();
    ++res.attempted;
    if (!r.ok()) {
      ++res.failed;
      continue;
    }
    res.latency.add(t1 - t0);
    eer.bw = r.value().bw_kbps;
    eer.version = r.value().version;
    eer.exp = r.value().exp_time;
    renewed[idx] = true;
  }
  deltas.finish(res);
  check_all_ok(res, "cp.renewal_all_granted", "renewals", gates);

  // Every on-path CServ must hold the renewed version.
  std::uint64_t stale = 0;
  std::string first_stale;
  for (std::size_t i = 0; i < eers.size(); ++i) {
    if (!renewed[i]) continue;
    const std::vector<AsId> path = bed.path_of(eers[i]);
    bool ok = path.size() >= 2;
    for (AsId as : path) {
      const auto rec = bed.tb().cserv(as).db().eer_copy(eers[i].key);
      bool has = false;
      if (rec) {
        for (const auto& v : rec->versions) has |= v.version == eers[i].version;
      }
      ok &= has;
    }
    if (!ok && stale++ == 0) first_stale = eers[i].src.to_string();
  }
  gates.check(stale == 0, "cp.renewed_version_on_path",
              std::to_string(stale) + " EERs stale, first from " + first_stale);
  return res;
}

void audit(Bed& bed, Gates& gates) {
  telemetry::ConservationAuditor auditor(bed.clock());
  for (AsId as : bed.ases()) {
    auditor.add_target({as.to_string(), as, &bed.tb().cserv(as).db(),
                        bed.tb().cserv(as).eer_admission(),
                        &bed.tb().topology().node(as)});
  }
  const auto report = auditor.run(bed.clock().now_sec());
  gates.check(report.clean(), "cp.conservation_audit_clean",
              report.clean() ? std::string()
                             : std::to_string(report.violations.size()) +
                                   " violations, first " +
                                   report.violations.front().check + ": " +
                                   report.violations.front().detail);
}

}  // namespace perfbench
