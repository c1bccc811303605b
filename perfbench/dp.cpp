// Data-plane phase: a Colibri packet as wire bytes. Each burst of 64
// leaves one source AS through Gateway::process_batch and goes onto the
// wire with encode_packet; every on-path AS takes its inbox through
// decode_packet + to_fast, BorderRouter::process_batch and re-encode,
// until the last hop delivers. Closed loop, one burst in flight; the
// SimClock advances by the reserved-rate pacing of the EERs in use.
#include <array>

#include "bench.hpp"
#include "colibri/dataplane/batch.hpp"
#include "colibri/proto/codec.hpp"

namespace perfbench {
namespace {

using namespace colibri;
using dataplane::BorderRouter;
using dataplane::Gateway;

constexpr std::size_t kBurst = dataplane::PacketBatch::kCapacity;
// Offered load is 1/kPacingHeadroom of the EERs' reserved rate, so the
// token buckets never run dry from random bunching.
constexpr double kPacingHeadroom = 2.0;
// One packet in about this many gets a tampered HVF.
constexpr std::uint64_t kCanaryOneIn = 1024;

struct Totals {
  std::array<std::uint64_t, Gateway::kNumVerdicts> gw{};
  std::array<std::uint64_t, BorderRouter::kNumVerdicts> rt{};
};

Totals snapshot_all(Bed& bed) {
  Totals t;
  for (AsId as : bed.ases()) {
    const auto g = bed.tb().gateway(as).snapshot();
    t.gw[0] += g.forwarded;
    t.gw[1] += g.no_reservation;
    t.gw[2] += g.rate_limited;
    t.gw[3] += g.expired;
    const auto r = bed.tb().router(as).snapshot();
    t.rt[0] += r.forwarded;
    t.rt[1] += r.delivered;
    t.rt[2] += r.bad_hvf;
    t.rt[3] += r.expired;
    t.rt[4] += r.malformed;
    t.rt[5] += r.blocked;
    t.rt[6] += r.replayed;
    t.rt[7] += r.overuse_dropped;
  }
  return t;
}

template <std::size_t N>
std::array<std::uint64_t, N> delta(const std::array<std::uint64_t, N>& a,
                                   const std::array<std::uint64_t, N>& b) {
  std::array<std::uint64_t, N> d{};
  for (std::size_t i = 0; i < N; ++i) d[i] = b[i] - a[i];
  return d;
}

}  // namespace

DpResult run_dataplane(Bed& bed, const DpPlan& plan, Rng& rng, Tracer& tracer,
                       Gates& gates) {
  DpResult res;
  std::vector<EerRef>& eers = *plan.eers;
  const std::vector<AsId>& ases = bed.ases();
  const std::size_t n_as = ases.size();

  // EERs by source AS, and the egress-interface routing table.
  std::vector<std::vector<std::size_t>> by_src(n_as);
  double total_kbps = 0;
  for (std::size_t i = 0; i < eers.size(); ++i) {
    by_src[bed.as_index(eers[i].src)].push_back(i);
    total_kbps += eers[i].bw;
  }
  std::vector<std::vector<std::uint8_t>> next_idx(n_as);
  for (std::size_t a = 0; a < n_as; ++a) {
    for (const auto& intf : bed.tb().topology().node(ases[a]).interfaces) {
      if (next_idx[a].size() <= intf.id) next_idx[a].resize(intf.id + 1u, 0);
      next_idx[a][intf.id] = static_cast<std::uint8_t>(bed.as_index(intf.neighbor));
    }
  }

  std::array<ResId, kBurst> ids{};
  std::array<std::uint32_t, kBurst> payload{};
  payload.fill(plan.payload_bytes);
  std::array<dataplane::FastPacket, kBurst> gw_out{};
  std::array<Gateway::Verdict, kBurst> gw_verdict{};
  std::array<bool, kBurst> canary{};
  std::array<bool, kBurst> last_hop{};
  std::array<BorderRouter::Verdict, kBurst> rt_verdict{};
  std::vector<std::vector<Bytes>> cur(n_as), nxt(n_as);
  for (auto& v : cur) v.reserve(kBurst);
  for (auto& v : nxt) v.reserve(kBurst);
  dataplane::PacketBatch batch;

  std::uint64_t bad_gateway = 0, bad_decode = 0, wrong_verdict = 0;
  std::uint64_t canary_escaped = 0, renew_failed = 0;
  std::size_t rr = 0;
  std::vector<std::size_t> pass_pos(n_as, 0);  // see the ResId draw below

  const Totals before = snapshot_all(bed);
  const std::uint64_t allocs0 = g_allocs;
  const std::int64_t start = wall_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(plan.seconds * 1e9);
  while (wall_ns() < deadline) {
    // Pick the burst's source and ResIds.
    std::size_t src_idx;
    if (plan.round_robin) {
      src_idx = bed.as_index(eers[0].src);
      for (std::size_t i = 0; i < kBurst; ++i) {
        ids[i] = eers[rr++ % eers.size()].key.res_id;
      }
    } else {
      // Source in proportion to its EER count, then ResIds uniformly
      // without replacement: an incremental shuffle that walks passes over
      // the source's EERs, each pass in a fresh random order and carried
      // across bursts. Every EER gets one packet per pass, so none gets a
      // random clump of packets that drains its token bucket (with
      // independent draws, about one run in twenty saw a few packets
      // rate-limited over 2^15 EERs).
      src_idx = bed.as_index(eers[rng.below(eers.size())].src);
      auto& own = by_src[src_idx];
      std::size_t& k = pass_pos[src_idx];
      for (std::size_t i = 0; i < kBurst; ++i) {
        if (k == own.size()) k = 0;
        std::swap(own[k], own[k + rng.below(own.size() - k)]);
        ids[i] = eers[own[k++]].key.res_id;
      }
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      canary[i] = rng.below(kCanaryOneIn) == 0;
    }

    tracer.current_op = tracer.next_op();
    double burst_bits = 0;
    const std::int64_t t0 = wall_ns();
    {
      Scope burst(tracer, kSpanBurst);
      {
        Scope s(tracer, kSpanGateway);
        bed.tb().gateway(ases[src_idx]).process_batch(
            ids.data(), payload.data(), kBurst, gw_out.data(), gw_verdict.data());
      }
      // Gateway output in order; canaries get their first-hop HVF flipped.
      std::size_t n_ok = 0;
      for (std::size_t i = 0; i < kBurst; ++i) {
        if (gw_verdict[i] != Gateway::Verdict::kOk) {
          ++bad_gateway;
          continue;
        }
        burst_bits += 8.0 * gw_out[i].wire_size();
        if (canary[i]) gw_out[i].hvfs[0][0] ^= 0x5A;
        canary[n_ok] = canary[i];
        gw_out[n_ok++] = gw_out[i];
      }
      {
        Scope s(tracer, kSpanEncode);
        for (std::size_t i = 0; i < n_ok; ++i) {
          cur[src_idx].push_back(proto::encode_packet(dataplane::to_packet(gw_out[i])));
        }
      }
      for (std::size_t i = 0; i < n_ok; ++i) {
        res.canaries += canary[i];
        res.offered += !canary[i];
      }

      // One round per hop: every AS with a non-empty inbox decodes it,
      // runs its border router over the batch and re-encodes what it
      // forwards into the next AS's inbox.
      for (bool first_hop = true, any = true; any; first_hop = false) {
        any = false;
        for (std::size_t a = 0; a < n_as; ++a) {
          std::vector<Bytes>& inbox = cur[a];
          if (inbox.empty()) continue;
          batch.clear();
          {
            Scope s(tracer, kSpanDecode);
            for (const Bytes& frame : inbox) {
              res.wire_bytes += frame.size();
              auto pkt = proto::decode_packet(frame);
              if (!pkt) {
                ++bad_decode;
                continue;
              }
              batch.push_slot() = dataplane::to_fast(*pkt);
            }
          }
          inbox.clear();
          for (std::size_t k = 0; k < batch.size; ++k) last_hop[k] = batch[k].at_last_hop();
          {
            Scope s(tracer, kSpanRouter);
            bed.tb().router(ases[a]).process_batch(batch, rt_verdict.data());
          }
          ++res.router_calls;
          res.pkt_hops += batch.size;
          {
            Scope s(tracer, kSpanEncode);
            for (std::size_t k = 0; k < batch.size; ++k) {
              const auto v = rt_verdict[k];
              if (first_hop && canary[k]) {
                canary_escaped += v != BorderRouter::Verdict::kBadHvf;
                continue;
              }
              if (last_hop[k]) {
                res.delivered += v == BorderRouter::Verdict::kDeliver;
                wrong_verdict += v != BorderRouter::Verdict::kDeliver;
                continue;
              }
              if (v != BorderRouter::Verdict::kForward) {
                ++wrong_verdict;
                continue;
              }
              const dataplane::FastPacket& fp = batch[k];
              const std::size_t next = next_idx[a][fp.ifaces[fp.current_hop - 1].eg];
              nxt[next].push_back(proto::encode_packet(dataplane::to_packet(fp)));
              any = true;
            }
          }
        }
        std::swap(cur, nxt);
      }
    }
    res.burst.add(wall_ns() - t0);
    ++res.bursts;

    // Reserved-rate pacing for the EERs this phase draws from.
    bed.clock().advance(static_cast<TimeNs>(kPacingHeadroom * burst_bits * 1e6 / total_kbps));

    if (plan.renew_lead_sec != 0 &&
        bed.clock().now_sec() + plan.renew_lead_sec >= eers[0].exp) {
      for (EerRef& eer : eers) {
        auto r = bed.tb().cserv(eer.src).renew_eer(eer.key, eer.bw, eer.bw);
        if (!r.ok()) {
          ++renew_failed;
          continue;
        }
        eer.version = r.value().version;
        eer.exp = r.value().exp_time;
      }
    }
  }
  res.wall_s = static_cast<double>(wall_ns() - start) / 1e9;
  res.allocs = g_allocs - allocs0;

  // Correctness gates.
  gates.check(bad_gateway == 0, "dp.gateway_all_ok",
              std::to_string(bad_gateway) + " packets refused by the gateway");
  gates.check(bad_decode == 0, "dp.wire_decodes",
              std::to_string(bad_decode) + " frames failed to decode");
  gates.check(wrong_verdict == 0 && res.delivered == res.offered,
              "dp.forward_then_deliver",
              std::to_string(wrong_verdict) + " wrong verdicts, " +
                  std::to_string(res.delivered) + "/" +
                  std::to_string(res.offered) + " delivered");
  gates.check(canary_escaped == 0, "dp.tampered_hvf_dropped_first_hop",
              std::to_string(canary_escaped) + " of " +
                  std::to_string(res.canaries) +
                  " tampered packets not dropped as kBadHvf");
  gates.check(renew_failed == 0, "dp.hot_renewals_granted",
              std::to_string(renew_failed) + " renewals failed");
  const Totals after = snapshot_all(bed);
  res.gateway_verdicts = delta(before.gw, after.gw);
  res.router_verdicts = delta(before.rt, after.rt);
  const auto& gw = res.gateway_verdicts;
  const auto& rt = res.router_verdicts;
  gates.check(gw[0] == res.offered + res.canaries && gw[1] + gw[2] + gw[3] == 0,
              "dp.gateway_snapshot_matches",
              "gateway ok delta " + std::to_string(gw[0]) + " vs " +
                  std::to_string(res.offered + res.canaries) +
                  ", rate_limited " + std::to_string(gw[2]));
  gates.check(rt[1] == res.delivered && rt[2] == res.canaries &&
                  rt[0] + rt[1] + rt[2] == res.pkt_hops &&
                  rt[3] + rt[4] + rt[5] + rt[6] + rt[7] == 0,
              "dp.router_snapshot_matches",
              "router deltas fwd=" + std::to_string(rt[0]) + " dlv=" +
                  std::to_string(rt[1]) + " bad_hvf=" + std::to_string(rt[2]) +
                  " vs delivered=" + std::to_string(res.delivered) +
                  " canaries=" + std::to_string(res.canaries) +
                  " visits=" + std::to_string(res.pkt_hops));
  return res;
}

}  // namespace perfbench
