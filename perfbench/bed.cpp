// Testbed construction plus the timing decorators of the traced run:
// an AdmissionBackend over the paper's BoundedTubeBackend (installed via
// CservConfig::admission_factory), a LogStorage over FileStorage under
// each CServ's WAL, and a MessageBus handler per AS that wraps the
// public CServ::handle.
#include <stdexcept>

#include "bench.hpp"
#include "colibri/admission/backend.hpp"
#include "colibri/cserv/wire_internal.hpp"

namespace perfbench {
namespace {

using namespace colibri;

class TimedAdmission final : public admission::AdmissionBackend {
 public:
  TimedAdmission(size_t stripes, Tracer& tracer, LayerCounters& counters)
      : inner_(stripes), tracer_(&tracer), counters_(&counters) {}

  const char* name() const override { return inner_.name(); }
  void set_interface_capacity(IfId ifid, BwKbps kbps) override {
    inner_.set_interface_capacity(ifid, kbps);
  }
  BwKbps interface_capacity(IfId ifid) const override {
    return inner_.interface_capacity(ifid);
  }
  Result<BwKbps> admit_segr(const admission::SegrAdmissionRequest& req) override {
    return timed([&] { return inner_.admit_segr(req); });
  }
  void release_segr(const ResKey& key) override { inner_.release_segr(key); }
  Result<BwKbps> admit_eer(reservation::ReservationDb& db,
                           const admission::EerAdmission::Request& req,
                           UnixSec now) override {
    return timed([&] { return inner_.admit_eer(db, req, now); });
  }
  void release_eer(reservation::ReservationDb& db, const ResKey& key) override {
    inner_.release_eer(db, key);
  }

 private:
  template <typename Fn>
  Result<BwKbps> timed(Fn&& fn) {
    if (!tracer_->on()) return fn();
    Scope s(*tracer_, kSpanAdmission);
    auto r = fn();
    ++counters_->admission_calls;
    counters_->admission_grants += r.ok() ? 1 : 0;
    return r;
  }

  admission::BoundedTubeBackend inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

class TimedStorage final : public reservation::LogStorage {
 public:
  TimedStorage(std::string path, Tracer& tracer, LayerCounters& counters)
      : inner_(std::move(path)), tracer_(&tracer), counters_(&counters) {}

  void append(BytesView data) override {
    if (!tracer_->on()) return inner_.append(data);
    Scope s(*tracer_, kSpanWal);
    inner_.append(data);
    counters_->wal_bytes += data.size();
  }
  Bytes read_all() const override { return inner_.read_all(); }
  void truncate() override { inner_.truncate(); }

 private:
  reservation::FileStorage inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

SpanName handler_span(BytesView wire) {
  if (wire.empty()) return kSpanHandlerOther;
  switch (wire[0]) {
    case cserv::wire::kChanPacket: return kSpanHandlerPacket;
    case cserv::wire::kChanRegistryQuery: return kSpanHandlerRegistry;
    case cserv::wire::kChanKeyFetch: return kSpanHandlerKeyfetch;
    default: return kSpanHandlerOther;
  }
}

bool is_leaf(const topology::AsNode& n) {
  if (n.core) return false;
  for (const auto& intf : n.interfaces) {
    if (intf.type == topology::LinkType::kParentChild && !intf.to_parent) {
      return false;  // has a customer
    }
  }
  return true;
}

}  // namespace

Bed::Bed(const BedOptions& opts, Tracer& tracer, LayerCounters& counters)
    : clock_(1000 * kNsPerSec) {
  cserv::CservConfig cfg;
  cfg.metrics = &registry_;
  // Rate limits are per-deployment policy; lifted so the limiter does
  // not refuse the benchmark's own load (as bench_cserv_throughput does).
  cfg.rate_limits.per_as_requests_per_sec = 1e12;
  cfg.rate_limits.per_as_burst = 1e12;
  cfg.rate_limits.renewals_per_reservation_per_sec = 1e12;
  cfg.rate_limits.renewal_burst = 1e12;
  if (opts.instrument) {
    cfg.admission_factory = [&tracer, &counters](AsId, size_t stripes) {
      return std::make_unique<TimedAdmission>(stripes, tracer, counters);
    };
  }
  tb_ = std::make_unique<app::Testbed>(topology::builders::two_isd_topology(),
                                       clock_, cfg);
  ases_ = tb_->topology().as_ids();
  for (std::size_t i = 0; i < ases_.size(); ++i) {
    const AsId as = ases_[i];
    as_index_[as.raw()] = i;
    if (!opts.wal_dir.empty()) {
      const std::string path = opts.wal_dir + "/" + as.to_string() + ".wal";
      std::unique_ptr<reservation::LogStorage> storage;
      if (opts.instrument) {
        storage = std::make_unique<TimedStorage>(path, tracer, counters);
      } else {
        storage = std::make_unique<reservation::FileStorage>(path);
      }
      storage->truncate();
      wals_.push_back(std::make_unique<reservation::ReservationWal>(*storage));
      tb_->cserv(as).attach_wal(wals_.back().get());
      storages_.push_back(std::move(storage));
    }
    if (opts.instrument) {
      cserv::CServ* cs = &tb_->cserv(as);
      tb_->bus().attach(as, [cs, &tracer](BytesView wire) {
        if (!tracer.on()) return cs->handle(wire);
        Scope s(tracer, handler_span(wire));
        return cs->handle(wire);
      });
    }
  }
  if (tb_->provision_all_segments(100, 2'000'000) == 0) {
    throw std::runtime_error("no SegR could be provisioned");
  }
  std::vector<AsId> leaves;
  for (AsId as : ases_) {
    if (is_leaf(tb_->topology().node(as))) leaves.push_back(as);
  }
  for (AsId src : leaves) {
    for (AsId dst : leaves) {
      if (src == dst) continue;
      if (!tb_->daemon(src).candidate_chains(dst).empty()) {
        pairs_.emplace_back(src, dst);
      }
    }
  }
  if (pairs_.empty()) throw std::runtime_error("no reachable leaf pair");
}

Bed::~Bed() = default;

std::vector<AsId> Bed::path_of(const EerRef& eer) {
  std::vector<AsId> path;
  const auto rec = tb_->cserv(eer.src).db().eer_copy(eer.key);
  if (!rec) return path;
  for (const auto& hop : rec->path) path.push_back(hop.as);
  return path;
}

}  // namespace perfbench
