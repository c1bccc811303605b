// The benchmark's view of a Colibri deployment and the phases every
// workload is composed of. All calls into the stack go through public
// functions of src/colibri; the benchmark only times around them.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "colibri/app/testbed.hpp"
#include "colibri/common/rand.hpp"
#include "colibri/reservation/persist.hpp"
#include "colibri/telemetry/alerts.hpp"
#include "colibri/telemetry/metrics.hpp"
#include "colibri/telemetry/timeseries.hpp"
#include "harness.hpp"

namespace perfbench {

using colibri::AsId;
using colibri::BwKbps;
using colibri::ResKey;
using colibri::ResVer;
using colibri::Rng;
using colibri::UnixSec;

// Counts the decorators and bus wrappers keep while tracing is on.
struct LayerCounters {
  std::uint64_t admission_calls = 0;
  std::uint64_t admission_grants = 0;
  std::uint64_t wal_bytes = 0;
};

struct BedOptions {
  // Directory for per-AS FileStorage WALs; empty = no WAL.
  std::string wal_dir;
  // Install the timing decorators (admission, WAL storage, bus handlers).
  // They forward untouched while the tracer is off.
  bool instrument = false;
};

// One EER the benchmark set up, as its source sees it.
struct EerRef {
  AsId src;
  AsId dst;
  ResKey key;
  BwKbps bw = 0;
  ResVer version = 0;
  UnixSec exp = 0;
};

// A two_isd_topology Testbed with SegRs provisioned, control-plane rate
// limits lifted, and an index of the leaf pairs that have SegR chains.
class Bed {
 public:
  Bed(const BedOptions& opts, Tracer& tracer, LayerCounters& counters);
  ~Bed();
  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;

  colibri::app::Testbed& tb() { return *tb_; }
  colibri::SimClock& clock() { return clock_; }
  colibri::telemetry::MetricsRegistry& registry() { return registry_; }
  const std::vector<std::pair<AsId, AsId>>& pairs() const { return pairs_; }
  const std::vector<AsId>& ases() const { return ases_; }
  // Dense index of an AS in ases().
  std::size_t as_index(AsId as) const { return as_index_.at(as.raw()); }
  // ASes on the EER's path, in order, from the source's reservation db.
  std::vector<AsId> path_of(const EerRef& eer);
  // A fresh end-host address (distinct per EER).
  colibri::HostAddr next_host() { return colibri::HostAddr::from_u64(next_host_++); }

 private:
  colibri::SimClock clock_;
  colibri::telemetry::MetricsRegistry registry_;
  // Declared before tb_: the CServs log into these until they die.
  std::vector<std::unique_ptr<colibri::reservation::LogStorage>> storages_;
  std::vector<std::unique_ptr<colibri::reservation::ReservationWal>> wals_;
  std::unique_ptr<colibri::app::Testbed> tb_;
  std::vector<AsId> ases_;
  std::unordered_map<std::uint64_t, std::size_t> as_index_;
  std::vector<std::pair<AsId, AsId>> pairs_;
  std::uint64_t next_host_ = 1;
};

// ---- control-plane phases (cp.cpp) ----------------------------------------

// Results of one control-plane phase. Counts of the decorators live in
// LayerCounters; `bus_bytes` and `allocs` are deltas over the phase
// (allocations are only counted while the run traces).
struct CpResult {
  Samples latency;      // per request, send to completion
  Samples gen_lag;      // open loop only: send time - due time
  Samples due_latency;  // open loop only: completion - due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;  // first request to last completion
  std::uint64_t polls = 0;
  std::int64_t poll_ns = 0;
  std::uint64_t bus_bytes = 0;
  std::uint64_t allocs = 0;
};

// One EEReq per reachable pair: fills DRKey, registry and key caches.
// Returns the EERs it set up.
std::vector<EerRef> warm_up(Bed& bed, Gates& gates);

// Closed-loop ColibriDaemon::open_session for every (src, dst, bw) in
// `plan`, latency timed per call; appends the EERs to `out`.
CpResult populate(Bed& bed, const std::vector<EerRef>& plan, Tracer& tracer,
                  std::vector<EerRef>& out, Gates& gates);

// The live monitoring plane of cp_churn: a WindowedSampler over the
// bed's registry with the default cserv alert pack, polled once per
// simulated second.
class Monitor {
 public:
  explicit Monitor(Bed& bed);
  // Polls when a simulated second has passed since the last poll.
  void maybe_poll(CpResult& res, Tracer& tracer);

 private:
  colibri::SimClock* clock_;
  colibri::telemetry::WindowedSampler sampler_;
  colibri::telemetry::AlertEngine alerts_;
  colibri::TimeNs next_poll_;
};

// Open-loop Poisson open_session arrivals at `rate_per_s` for
// `duration_s`, round-robin over the reachable pairs. `latency` is each
// request's service time; `due_latency` also counts the wait from its
// due time, behind earlier requests. SimClock follows the due times; the
// monitor (sampler and alert engine) polls once per simulated second.
CpResult open_loop_setups(Bed& bed, double rate_per_s, double duration_s,
                          BwKbps bw, Rng& rng, Monitor& monitor,
                          Tracer& tracer, std::vector<EerRef>& out,
                          Gates& gates);

// Every EER in `eers` comes due at the current instant and is renewed
// through CServ::renew_eer at its source, in a seeded order. Checks that
// every on-path CServ holds the renewed version.
CpResult renewal_storm(Bed& bed, std::vector<EerRef>& eers, Rng& rng,
                       Tracer& tracer, Gates& gates);

// A ConservationAuditor pass over every AS (needs the default admission
// backend, so only in untraced runs).
void audit(Bed& bed, Gates& gates);

// ---- data-plane phase (dp.cpp) ---------------------------------------------

struct DpPlan {
  // Candidate EERs; each burst comes from one source AS.
  std::vector<EerRef>* eers = nullptr;
  bool round_robin = false;  // false: uniform random EER per packet
  std::uint32_t payload_bytes = 0;
  double seconds = 0;  // wall time to run
  // Renew the EERs between bursts when this close to expiry (0 = never);
  // keeps long hot runs inside the 16-s EER lifetime.
  UnixSec renew_lead_sec = 0;
};

struct DpResult {
  Samples burst;
  std::uint64_t bursts = 0;
  std::uint64_t offered = 0;     // untampered packets into the gateway
  std::uint64_t delivered = 0;   // kDeliver at the last hop
  std::uint64_t canaries = 0;    // HVF-tampered packets
  std::uint64_t pkt_hops = 0;    // router packet-visits
  std::uint64_t router_calls = 0;
  std::uint64_t wire_bytes = 0;  // bytes decoded at routers
  std::uint64_t allocs = 0;
  double wall_s = 0;
  std::array<std::uint64_t, 4> gateway_verdicts{};  // snapshot() deltas
  std::array<std::uint64_t, 8> router_verdicts{};
};

DpResult run_dataplane(Bed& bed, const DpPlan& plan, Rng& rng, Tracer& tracer,
                       Gates& gates);

}  // namespace perfbench
