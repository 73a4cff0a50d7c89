// The discrete-event engine. Same hardware model as the cycle engine in
// flit_sim.cpp — read that file first; every rule here (credits, VL
// locks, one flit per channel and per input port per cycle, round-robin
// arbitration, MTU segmentation, NIC virtual head flits) is a direct
// port — but driven by a time-keyed event queue instead of a
// scan-everything-every-cycle loop.
//
// Actors and events:
//
//   * Deterministic mode: the actor is an *output channel*. A work event
//     runs its round-robin arbitration once (at most one flit moves per
//     output per cycle). Adaptive mode: the actor is a *queue* (the
//     per-hop route decision is per-queue state).
//   * A moved flit schedules its arrival at t+1 (arrivals become visible
//     next cycle, exactly like the cycle engine's end-of-cycle commit).
//   * An actor blocked on a (channel, VL) buffer — credit exhausted or a
//     foreign wormhole lock — subscribes to that buffer and sleeps. The
//     credit release (pop) and the lock release (tail enqueue) wake the
//     subscribers at t+1. Conservative extra wakes are harmless; a
//     *missed* wake would surface as a false deadlock, so every blocking
//     test below pairs with the wake at the matching state change.
//   * An actor blocked only by a same-cycle stamp (input port or output
//     already used at t) retries at t+1 unconditionally — the stamp
//     itself proves another flit moved at t, so these retries cannot
//     accumulate without global progress.
//
// Deadlock detection is therefore immediate and exact: packets are
// outstanding but the event queue drained — every remaining flit sleeps
// on a subscription that can never fire (the cyclic wait of a real
// credit deadlock). No idle-cycle watchdog, no 50k-cycle wait.
//
// Timing and order differ from the cycle engine: a credit freed at
// cycle t is reusable at t (later in the same scan) there, but wakes a
// sleeping actor at t+1 here, and the two serve one cycle's outputs in
// different orders. On tables with an acyclic CDG, verdicts and
// delivered totals agree (the parity suite checks both) and cycle counts
// may differ by small constants. On a cyclic CDG, the same-cycle order
// can decide whether the cyclic wait closes, so the verdicts may differ
// (docs/SIMULATION.md, "The two engines").
#include "sim/event_sim.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace nue {

namespace {

constexpr std::uint32_t kTailBit = 0x80000000u;
constexpr std::uint32_t kNoLock = static_cast<std::uint32_t>(-1);

struct Packet {
  NodeId src;
  NodeId dst;
  std::uint32_t dest_idx;
  std::uint16_t flits;
  std::uint16_t delivered;
  std::uint32_t payload_bytes;
  std::uint64_t inject_cycle = 0;  // cycle the first flit left the NIC
};

/// Small FIFO of flit words with an amortized-O(1) pop that avoids
/// std::deque's per-block allocations (queues hold at most buffer_flits).
class FlitFifo {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }
  std::uint32_t front() const { return buf_[head_]; }
  void push_back(std::uint32_t f) { buf_.push_back(f); }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<std::uint32_t> buf_;
  std::size_t head_ = 0;
};

/// Per-queue state. A record is created the first time traffic touches
/// its queue, so an idle (channel, VL) on a 100k-switch fabric costs one
/// null entry in the flat queue-id index, not a record. For in-network
/// queues the record doubles as the downstream-resource view of that
/// (channel, VL): `occupancy` is the credit count (flits present or in
/// flight to this buffer), `lock` the wormhole owner, and `waiters` the
/// actors to wake when either changes.
struct QState {
  FlitFifo flits;  // packet id | kTailBit on tail flits
  std::uint32_t occupancy = 0;
  std::uint32_t lock = kNoLock;
  ChannelId req_out = kInvalidChannel;  // deterministic: registered output
  bool registered = false;
  // Adaptive mode: the header's per-hop decision, honoured by body flits.
  std::uint32_t locked_pid = kNoLock;
  ChannelId locked_out = kInvalidChannel;
  std::uint8_t locked_vl = 0;
  std::uint64_t sched_time = 0;  // adaptive work-event dedup stamp
  std::vector<std::uint64_t> waiters;
};

/// Per-output arbitration state (deterministic mode).
struct OutState {
  std::vector<std::uint64_t> cand;  // queue ids requesting this output
  std::uint32_t rr_ptr = 0;
  std::uint64_t sched_time = 0;  // work-event dedup stamp
};

/// Everything scheduled for one timestamp. Processing order within a
/// bucket is injections, then arrivals, then work — so traffic activated
/// and flits landed at t are arbitrated at t, while anything a work event
/// produces lands at t+1.
struct Bucket {
  std::vector<NodeId> injects;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> arrivals;
  std::vector<std::uint64_t> works;

  bool empty() const {
    return injects.empty() && arrivals.empty() && works.empty();
  }
  std::size_t size() const {
    return injects.size() + arrivals.size() + works.size();
  }
  void clear() {
    injects.clear();
    arrivals.clear();
    works.clear();
  }
};

}  // namespace

struct EventSimulator::Impl {
  Impl(const Network& net, const RoutingResult& rr, const SimConfig& cfg,
       std::uint32_t adaptive_vls)
      : net_(net),
        rr_(rr),
        cfg_(cfg),
        adaptive_vls_(adaptive_vls),
        num_vls_(adaptive_vls > 0 ? adaptive_vls + 1 : rr.num_vls()),
        nic_base_(static_cast<std::uint64_t>(net.num_channels()) * num_vls_) {
    NUE_CHECK(cfg.mtu_bytes >= cfg.flit_bytes);
    if (adaptive_vls_ > 0) {
      NUE_CHECK_MSG(rr.num_vls() == 1,
                    "escape routing must be a single-VL deadlock-free routing");
      out_used_stamp_.assign(net.num_channels(), 0);
    }
    input_used_stamp_.assign(net.num_channels() + net.num_nodes(), 0);
    q_index_.assign(nic_base_ + net.num_nodes(), nullptr);
    out_index_.assign(net.num_channels(), nullptr);
    nic_packets_.assign(net.num_nodes(), {});
    nic_pending_.assign(net.num_nodes(), {});
    nic_head_.assign(net.num_nodes(), 0);
    nic_emitted_.assign(net.num_nodes(), 0);
    nic_inject_sched_.assign(net.num_nodes(), 0);
  }

  // --- identity helpers (same id layout as the cycle engine) ---------------
  std::uint64_t qid_of(ChannelId c, std::uint32_t vl) const {
    return static_cast<std::uint64_t>(c) * num_vls_ + vl;
  }
  std::uint64_t nic_qid(NodeId t) const { return nic_base_ + t; }
  bool is_nic(std::uint64_t qid) const { return qid >= nic_base_; }

  std::size_t input_port_of(std::uint64_t qid) const {
    return !is_nic(qid)
               ? static_cast<std::size_t>(qid / num_vls_)
               : net_.num_channels() + static_cast<std::size_t>(qid - nic_base_);
  }
  NodeId node_of(std::uint64_t qid) const {
    return !is_nic(qid) ? net_.dst(static_cast<ChannelId>(qid / num_vls_))
                        : static_cast<NodeId>(qid - nic_base_);
  }

  /// The queue's record, created on first touch. Records live in a deque
  /// and never move, so a reference stays valid while later lookups
  /// create other records (wake_waiters walks one queue's waiters while
  /// schedule_work creates others).
  QState& qs(std::uint64_t qid) {
    QState*& slot = q_index_[qid];
    if (slot == nullptr) slot = &q_pool_.emplace_back();
    return *slot;
  }
  OutState& outs(ChannelId c) {
    OutState*& slot = out_index_[c];
    if (slot == nullptr) slot = &out_pool_.emplace_back();
    return *slot;
  }

  // --- event queue ----------------------------------------------------------
  Bucket& bucket_at(std::uint64_t t) {
    if (t == now_) return cur_;
    if (t == now_ + 1) return next_;
    return far_[t];
  }

  void note_scheduled() {
    ++pending_events_;
    queue_peak_ = std::max(queue_peak_, pending_events_);
  }

  void schedule_arrival(std::uint64_t qid, std::uint32_t flit,
                        std::uint64_t t) {
    bucket_at(t).arrivals.emplace_back(qid, flit);
    note_scheduled();
  }

  void schedule_inject(NodeId src, std::uint64_t t) {
    if (nic_inject_sched_[src] == t) return;  // batch injects coalesce
    nic_inject_sched_[src] = t;
    bucket_at(t).injects.push_back(src);
    note_scheduled();
  }

  /// Schedule the actor (deterministic: output channel, adaptive: queue)
  /// to arbitrate at time t, deduplicated via its sched_time stamp.
  /// Stamps are monotone because every schedule lands at now or now+1 and
  /// now-schedules (injections/arrivals) are processed before
  /// now+1-schedules (work fallout) within a bucket.
  void schedule_work(std::uint64_t actor, std::uint64_t t) {
    std::uint64_t& stamp = adaptive_vls_ > 0
                               ? qs(actor).sched_time
                               : outs(static_cast<ChannelId>(actor)).sched_time;
    if (stamp >= t) return;
    stamp = t;
    bucket_at(t).works.push_back(actor);
    note_scheduled();
  }

  /// Subscribe `actor` to wake when `down`'s credit or lock state changes.
  void subscribe(QState& down, std::uint64_t actor) {
    auto& w = down.waiters;
    if (std::find(w.begin(), w.end(), actor) == w.end()) w.push_back(actor);
  }

  void wake_waiters(std::uint64_t down_key, std::uint64_t t) {
    QState& d = qs(down_key);
    for (const std::uint64_t actor : d.waiters) schedule_work(actor, t);
    d.waiters.clear();
  }

  // --- NIC ------------------------------------------------------------------
  /// Expose the NIC's current packet as a virtual head flit (emission
  /// counting happens at move time via nic_emitted_).
  void fill_nic_head(NodeId t) {
    QState& q = qs(nic_qid(t));
    if (q.flits.empty() && nic_head_[t] < nic_packets_[t].size()) {
      const std::uint32_t pid = nic_packets_[t][nic_head_[t]];
      const bool tail = nic_emitted_[t] + 1 == packets_[pid].flits;
      q.flits.push_back(pid | (tail ? kTailBit : 0));
    }
  }

  /// Injection event: activate every pending message with when <= t at
  /// this terminal (keeping injection order) and start the NIC emitting.
  void process_inject(NodeId src, std::uint64_t t) {
    auto& pending = nic_pending_[src];
    auto mid = std::stable_partition(
        pending.begin(), pending.end(),
        [t](const std::pair<std::uint64_t, std::uint32_t>& e) {
          return e.first <= t;
        });
    for (auto it = pending.begin(); it != mid; ++it) {
      nic_packets_[src].push_back(it->second);
    }
    pending.erase(pending.begin(), mid);
    fill_nic_head(src);
    const std::uint64_t qid = nic_qid(src);
    if (qs(qid).flits.empty()) return;
    if (adaptive_vls_ > 0) {
      schedule_work(qid, t);
    } else {
      refresh_queue(qid, t);
    }
  }

  // --- deterministic mode ---------------------------------------------------
  /// Recompute a queue's requested output from its head flit, register it
  /// with that output's candidate list, and schedule the output.
  void refresh_queue(std::uint64_t qid, std::uint64_t wake_t) {
    QState& q = qs(qid);
    if (q.registered || q.flits.empty()) return;
    const std::uint32_t pid = q.flits.front() & ~kTailBit;
    const Packet& p = packets_[pid];
    const ChannelId out = rr_.next(node_of(qid), p.dest_idx);
    NUE_DCHECK(out != kInvalidChannel);
    q.req_out = out;
    q.registered = true;
    outs(out).cand.push_back(qid);
    schedule_work(out, wake_t);
  }

  void refresh_nic(NodeId t, std::uint64_t wake_t) {
    if (qs(nic_qid(t)).registered) return;
    fill_nic_head(t);
    refresh_queue(nic_qid(t), wake_t);
  }

  /// Consume a queue's head flit: unregister, pop, release the credit
  /// (waking writers blocked on it), and re-register for the next flit.
  void pop_head(std::uint64_t qid, std::uint64_t t) {
    QState& q = qs(qid);
    auto& cand = outs(q.req_out).cand;
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (cand[i] == qid) {
        cand[i] = cand.back();
        cand.pop_back();
        break;
      }
    }
    q.registered = false;
    if (is_nic(qid)) {
      const NodeId t_ = static_cast<NodeId>(qid - nic_base_);
      q.flits.pop_front();
      if (++nic_emitted_[t_] == packets_[nic_packets_[t_][nic_head_[t_]]].flits) {
        ++nic_head_[t_];
        nic_emitted_[t_] = 0;
      }
      refresh_nic(t_, t + 1);
    } else {
      --q.occupancy;
      q.flits.pop_front();
      wake_waiters(qid, t + 1);  // credit freed
      refresh_queue(qid, t + 1);
    }
  }

  /// One round-robin arbitration pass for an output channel: move at most
  /// one flit, subscribe every credit/lock-blocked candidate, retry at
  /// t+1 when only same-cycle stamps were in the way.
  void serve_output(ChannelId out, std::uint64_t t) {
    OutState& os = outs(out);
    auto& cand = os.cand;
    if (cand.empty()) return;
    const std::size_t n = cand.size();
    bool transient = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = (os.rr_ptr + k) % n;
      const std::uint64_t qid = cand[slot];
      QState& q = qs(qid);
      NUE_DCHECK(q.registered && !q.flits.empty());
      const std::uint32_t flit = q.flits.front();
      const std::uint32_t pid = flit & ~kTailBit;
      const Packet& p = packets_[pid];
      const std::uint32_t vl = rr_.vl(node_of(qid), p.src, p.dest_idx);
      if (input_used_stamp_[input_port_of(qid)] == t) {
        transient = true;  // another VL of this port moved at t
        continue;
      }
      const NodeId to = net_.dst(out);
      const bool eject = net_.is_terminal(to);
      const std::uint64_t down = qid_of(out, vl);
      if (!eject) {
        QState& d = qs(down);
        if (d.occupancy >= cfg_.buffer_flits ||
            (d.lock != kNoLock && d.lock != pid)) {
          subscribe(d, out);
          continue;
        }
      }
      // --- move the flit ---
      input_used_stamp_[input_port_of(qid)] = t;
      os.rr_ptr = static_cast<std::uint32_t>((slot + 1) % n);
      count_tx(out);
      if (is_nic(qid) && nic_emitted_[net_.src(out)] == 0) {
        packets_[pid].inject_cycle = t;  // first flit leaves the NIC
      }
      last_move_ = t;
      pop_head(qid, t);
      ++flit_hops_;
      if (eject) {
        deliver(pid, (flit & kTailBit) != 0, t);
      } else {
        QState& d = qs(down);
        const bool unlock = (flit & kTailBit) != 0;
        d.lock = unlock ? kNoLock : pid;
        ++d.occupancy;
        record_occupancy(d.occupancy);
        if (unlock) wake_waiters(down, t + 1);  // lock released
        schedule_arrival(down, flit, t + 1);
      }
      if (!cand.empty()) schedule_work(out, t + 1);
      return;
    }
    if (transient) schedule_work(out, t + 1);
  }

  // --- adaptive mode --------------------------------------------------------
  const std::vector<std::uint16_t>& hop_distances(std::uint32_t dest_idx) {
    if (hop_dist_.empty()) hop_dist_.resize(rr_.destinations().size());
    auto& d = hop_dist_[dest_idx];
    if (d.empty()) {
      // BFS from the destination over reversed (= duplex) channels.
      d.assign(net_.num_nodes(), 0xFFFF);
      std::vector<NodeId> frontier{rr_.destinations()[dest_idx]};
      d[frontier[0]] = 0;
      while (!frontier.empty()) {
        std::vector<NodeId> next;
        for (NodeId v : frontier) {
          for (ChannelId c : net_.out(v)) {
            const NodeId w = net_.dst(c);
            if (d[w] == 0xFFFF) {
              d[w] = static_cast<std::uint16_t>(d[v] + 1);
              next.push_back(w);
            }
          }
        }
        frontier.swap(next);
      }
    }
    return d;
  }

  /// Header route choice (same preference order as the cycle engine).
  /// Every blocked option leaves either a subscription (credit/lock) or a
  /// transient flag (same-cycle stamp) behind, so a false return always
  /// comes with a guaranteed future wake or retry — except when even the
  /// escape routing has no usable table entry, which the drained event
  /// queue then correctly reports as deadlock.
  bool choose_adaptive(std::uint64_t qid, NodeId at, const Packet& p,
                       std::uint8_t cur_vl, std::uint64_t t, ChannelId* out,
                       std::uint8_t* vl, bool* transient) {
    const std::uint8_t escape_vl = static_cast<std::uint8_t>(adaptive_vls_);
    const bool on_escape = cur_vl == escape_vl && !is_nic(qid);
    const std::uint32_t pid =
        static_cast<std::uint32_t>(&p - packets_.data());
    const auto usable = [&](ChannelId c, std::uint8_t v) {
      if (out_used_stamp_[c] == t) {
        *transient = true;
        return false;
      }
      const NodeId to = net_.dst(c);
      if (net_.is_terminal(to)) return to == p.dst;
      QState& d = qs(qid_of(c, v));
      if (d.occupancy >= cfg_.buffer_flits ||
          (d.lock != kNoLock && d.lock != pid)) {
        subscribe(d, qid);
        return false;
      }
      return true;
    };
    if (!on_escape) {
      const auto& dist = hop_distances(p.dest_idx);
      // Rotating preference over minimal outputs and adaptive VLs.
      const auto outs = net_.out(at);
      for (std::size_t k = 0; k < outs.size(); ++k) {
        const ChannelId c = outs[(adaptive_rr_ + k) % outs.size()];
        const NodeId to = net_.dst(c);
        if (net_.is_terminal(to) ? to != p.dst : dist[to] + 1 != dist[at]) {
          continue;  // non-minimal
        }
        for (std::uint8_t v = 0; v < adaptive_vls_; ++v) {
          if (usable(c, v)) {
            *out = c;
            *vl = v;
            ++adaptive_rr_;
            return true;
          }
        }
      }
    }
    // Escape (or already escaped): deterministic deadlock-free routing.
    const ChannelId c = rr_.next(at, p.dest_idx);
    if (c != kInvalidChannel && usable(c, escape_vl)) {
      *out = c;
      *vl = escape_vl;
      return true;
    }
    return false;
  }

  /// pop_head() counterpart without the deterministic candidate lists.
  void adaptive_pop(std::uint64_t qid, std::uint64_t t) {
    QState& q = qs(qid);
    if (is_nic(qid)) {
      const NodeId t_ = static_cast<NodeId>(qid - nic_base_);
      q.flits.pop_front();
      if (++nic_emitted_[t_] == packets_[nic_packets_[t_][nic_head_[t_]]].flits) {
        ++nic_head_[t_];
        nic_emitted_[t_] = 0;
      }
      fill_nic_head(t_);
    } else {
      --q.occupancy;
      q.flits.pop_front();
      wake_waiters(qid, t + 1);  // credit freed
    }
  }

  /// Adaptive work event: one queue tries to move its head flit.
  void serve_queue(std::uint64_t qid, std::uint64_t t) {
    QState& q = qs(qid);
    if (q.flits.empty()) return;
    if (input_used_stamp_[input_port_of(qid)] == t) {
      schedule_work(qid, t + 1);
      return;
    }
    const std::uint32_t flit = q.flits.front();
    const std::uint32_t pid = flit & ~kTailBit;
    const Packet& p = packets_[pid];
    const NodeId at = node_of(qid);
    ChannelId out;
    std::uint8_t vl;
    if (q.locked_pid == pid) {
      out = q.locked_out;
      vl = q.locked_vl;
      // Re-validate resources for this body flit.
      if (out_used_stamp_[out] == t) {
        schedule_work(qid, t + 1);
        return;
      }
      const NodeId to = net_.dst(out);
      if (!net_.is_terminal(to)) {
        QState& d = qs(qid_of(out, vl));
        if (d.occupancy >= cfg_.buffer_flits ||
            (d.lock != kNoLock && d.lock != pid)) {
          subscribe(d, qid);
          return;
        }
      }
    } else {
      const std::uint8_t cur_vl =
          !is_nic(qid) ? static_cast<std::uint8_t>(qid % num_vls_) : 0;
      bool transient = false;
      if (!choose_adaptive(qid, at, p, cur_vl, t, &out, &vl, &transient)) {
        if (transient) schedule_work(qid, t + 1);
        return;  // otherwise: subscriptions (or true dead-end) hold the wake
      }
      q.locked_pid = pid;
      q.locked_out = out;
      q.locked_vl = vl;
    }
    // --- move the flit ---
    input_used_stamp_[input_port_of(qid)] = t;
    out_used_stamp_[out] = t;
    count_tx(out);
    if (is_nic(qid) && nic_emitted_[net_.src(out)] == 0) {
      packets_[pid].inject_cycle = t;
    }
    last_move_ = t;
    adaptive_pop(qid, t);
    // The per-queue route decision lives until this packet's tail has
    // passed — body flits must follow the header even when the queue
    // drains and refills in between.
    if (flit & kTailBit) q.locked_pid = kNoLock;
    ++flit_hops_;
    const NodeId to = net_.dst(out);
    if (net_.is_terminal(to)) {
      deliver(pid, (flit & kTailBit) != 0, t);
    } else {
      QState& d = qs(qid_of(out, vl));
      const bool unlock = (flit & kTailBit) != 0;
      d.lock = unlock ? kNoLock : pid;
      ++d.occupancy;
      record_occupancy(d.occupancy);
      if (unlock) wake_waiters(qid_of(out, vl), t + 1);
      schedule_arrival(qid_of(out, vl), flit, t + 1);
    }
    if (!q.flits.empty()) schedule_work(qid, t + 1);
  }

  // --- shared move bookkeeping ----------------------------------------------
  static void record_occupancy(std::uint32_t depth) {
    if (!telemetry::enabled()) return;
    static auto& hist = telemetry::histogram("flit_sim.vl_occupancy");
    hist.record_always(depth);
  }

  void count_tx(ChannelId c) {
    if (tx_count_.empty()) tx_count_.assign(net_.num_channels(), 0);
    ++tx_count_[c];
  }

  void deliver(std::uint32_t pid, bool tail, std::uint64_t t) {
    Packet& p = packets_[pid];
    ++p.delivered;
    if (tail) {
      NUE_DCHECK(p.delivered == p.flits);
      ++delivered_packets_;
      delivered_bytes_ += p.payload_bytes;
      latencies_.push_back(t - p.inject_cycle + 1);
    }
  }

  // --- driver ---------------------------------------------------------------
  void inject(const Message& m, std::uint64_t when) {
    NUE_CHECK(net_.is_terminal(m.src) && net_.node_alive(m.src));
    NUE_CHECK(rr_.is_destination(m.dst));
    const std::uint64_t t = std::max<std::uint64_t>(when, now_ + 1);
    // MTU segmentation: each packet carries up to mtu_bytes of payload
    // plus one header flit.
    std::uint32_t remaining = std::max(m.bytes, 1u);
    while (remaining > 0) {
      const std::uint32_t chunk = std::min(remaining, cfg_.mtu_bytes);
      remaining -= chunk;
      const std::uint32_t f = 1 + (chunk + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
      NUE_CHECK(f < 0x10000);
      packets_.push_back({m.src, m.dst, rr_.dest_index(m.dst),
                          static_cast<std::uint16_t>(f), 0, chunk});
      nic_pending_[m.src].emplace_back(
          t, static_cast<std::uint32_t>(packets_.size() - 1));
    }
    total_bytes_ += m.bytes;
    schedule_inject(m.src, t);
  }

  /// Advance now_ to the next non-empty bucket; false when none remains.
  bool advance_bucket() {
    if (!next_.empty()) {
      ++now_;
      std::swap(cur_, next_);
      next_.clear();
    } else if (!far_.empty()) {
      auto it = far_.begin();
      now_ = it->first;
      cur_ = std::move(it->second);
      far_.erase(it);
    } else {
      return false;
    }
    if (!far_.empty() && far_.begin()->first == now_ + 1) {
      next_ = std::move(far_.begin()->second);
      far_.erase(far_.begin());
    }
    return true;
  }

  SimRunStatus run() {
    TELEM_SPAN("sim.run");
    Timer wall;
    const std::uint64_t events_at_start = events_processed_;
    SimRunStatus status;
    for (;;) {
      if (delivered_packets_ == packets_.size()) {
        status = SimRunStatus::kCompleted;
        break;
      }
      if (!advance_bucket()) {
        // Packets outstanding, event queue drained: every remaining flit
        // waits on a subscription that can never fire. Deadlock, now.
        deadlocked_ = true;
        status = SimRunStatus::kDeadlocked;
        break;
      }
      if (now_ > cfg_.max_cycles) {
        status = SimRunStatus::kCycleLimit;
        break;
      }
      if (cfg_.max_wall_ms > 0 && wall.seconds() * 1e3 >= cfg_.max_wall_ms) {
        hit_wall_budget_ = true;
        status = SimRunStatus::kWallLimit;
        break;
      }
      // Index loops: injection/arrival handlers may append same-time work.
      for (std::size_t i = 0; i < cur_.injects.size(); ++i) {
        process_inject(cur_.injects[i], now_);
      }
      for (std::size_t i = 0; i < cur_.arrivals.size(); ++i) {
        const auto [qid, flit] = cur_.arrivals[i];
        qs(qid).flits.push_back(flit);
        if (adaptive_vls_ > 0) {
          schedule_work(qid, now_);
        } else {
          refresh_queue(qid, now_);
        }
      }
      for (std::size_t i = 0; i < cur_.works.size(); ++i) {
        if (adaptive_vls_ > 0) {
          serve_queue(cur_.works[i], now_);
        } else {
          serve_output(static_cast<ChannelId>(cur_.works[i]), now_);
        }
      }
      const std::size_t n = cur_.size();
      events_processed_ += n;
      pending_events_ -= n;
      cur_.clear();
    }
    if (telemetry::enabled()) {
      telemetry::counter("sim.events_processed")
          .add(events_processed_ - events_at_start);
      telemetry::counter("sim.queue_peak").add(queue_peak_ - queue_peak_counted_);
      queue_peak_counted_ = queue_peak_;
    }
    return status;
  }

  SimResult result() const {
    SimResult res;
    res.completed = delivered_packets_ == packets_.size();
    res.deadlocked = deadlocked_;
    res.hit_wall_budget = hit_wall_budget_;
    res.cycles = res.completed ? last_move_ : now_;
    res.delivered_packets = delivered_packets_;
    res.delivered_bytes = delivered_bytes_;
    res.flit_hops = flit_hops_;
    res.events_processed = events_processed_;
    res.queue_peak = queue_peak_;
    if (!latencies_.empty()) {
      std::uint64_t total = 0, maxv = 0;
      for (const auto l : latencies_) {
        total += l;
        maxv = std::max(maxv, l);
      }
      res.avg_packet_latency =
          static_cast<double>(total) / static_cast<double>(latencies_.size());
      res.max_packet_latency = maxv;
      std::vector<double> lat(latencies_.begin(), latencies_.end());
      res.p99_packet_latency = percentile(std::move(lat), 99.0);
    }
    const std::uint64_t cycles = res.cycles;
    if (cycles > 0 && !tx_count_.empty()) {
      std::uint64_t max_tx = 0, total_tx = 0;
      std::size_t links = 0;
      for (ChannelId c = 0; c < net_.num_channels(); ++c) {
        if (!net_.channel_alive(c) || net_.is_terminal(net_.src(c)) ||
            net_.is_terminal(net_.dst(c))) {
          continue;
        }
        max_tx = std::max(max_tx, tx_count_[c]);
        total_tx += tx_count_[c];
        ++links;
      }
      res.max_link_utilization =
          static_cast<double>(max_tx) / static_cast<double>(cycles);
      if (links > 0) {
        res.avg_link_utilization = static_cast<double>(total_tx) /
                                   static_cast<double>(links) /
                                   static_cast<double>(cycles);
      }
    }
    if (cycles > 0) {
      res.aggregate_flits_per_cycle =
          static_cast<double>(delivered_bytes_) / cfg_.flit_bytes /
          static_cast<double>(cycles);
      res.normalized_throughput =
          res.aggregate_flits_per_cycle /
          static_cast<double>(net_.num_alive_terminals());
    }
    return res;
  }

  const Network& net_;
  const RoutingResult& rr_;  // deterministic tables / adaptive escape routing
  SimConfig cfg_;
  std::uint32_t adaptive_vls_ = 0;  // 0 = deterministic mode
  std::uint32_t num_vls_;
  std::uint64_t nic_base_;

  std::vector<Packet> packets_;
  // Queue and output records, indexed by queue id and by channel; null
  // until first touched (see qs() and outs()).
  std::vector<QState*> q_index_;
  std::deque<QState> q_pool_;
  std::vector<OutState*> out_index_;
  std::deque<OutState> out_pool_;
  std::vector<std::uint64_t> input_used_stamp_;
  std::vector<std::uint64_t> out_used_stamp_;  // adaptive only
  std::vector<std::vector<std::uint16_t>> hop_dist_;  // per dest_idx, lazy
  std::size_t adaptive_rr_ = 0;

  std::vector<std::vector<std::uint32_t>> nic_packets_;
  /// (activation time, packet id) not yet handed to the NIC.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> nic_pending_;
  std::vector<std::size_t> nic_head_;
  std::vector<std::uint32_t> nic_emitted_;
  std::vector<std::uint64_t> nic_inject_sched_;

  // Timeline: bucket at now_, bucket at now_+1, sparse map beyond.
  std::uint64_t now_ = 0;
  Bucket cur_;
  Bucket next_;
  std::map<std::uint64_t, Bucket> far_;

  std::uint64_t events_processed_ = 0;
  std::uint64_t pending_events_ = 0;
  std::uint64_t queue_peak_ = 0;
  std::uint64_t queue_peak_counted_ = 0;
  std::uint64_t last_move_ = 0;
  bool deadlocked_ = false;
  bool hit_wall_budget_ = false;

  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t flit_hops_ = 0;
  std::vector<std::uint64_t> latencies_;
  std::vector<std::uint64_t> tx_count_;  // flits sent per channel
};

EventSimulator::EventSimulator(const Network& net, const RoutingResult& rr,
                               const SimConfig& cfg, std::uint32_t adaptive_vls)
    : impl_(std::make_unique<Impl>(net, rr, cfg, adaptive_vls)) {}

EventSimulator::~EventSimulator() = default;

void EventSimulator::inject(const Message& m, std::uint64_t when) {
  impl_->inject(m, when);
}

void EventSimulator::inject(const std::vector<Message>& msgs,
                            std::uint64_t when) {
  for (const Message& m : msgs) impl_->inject(m, when);
}

SimRunStatus EventSimulator::run() { return impl_->run(); }

std::uint64_t EventSimulator::now() const { return impl_->now_; }
std::uint64_t EventSimulator::events_processed() const {
  return impl_->events_processed_;
}
std::uint64_t EventSimulator::delivered_packets() const {
  return impl_->delivered_packets_;
}
std::uint64_t EventSimulator::delivered_bytes() const {
  return impl_->delivered_bytes_;
}

SimResult EventSimulator::result() const { return impl_->result(); }

SimResult simulate(const Network& net, const RoutingResult& rr,
                   const std::vector<Message>& messages, const SimConfig& cfg) {
  EventSimulator sim(net, rr, cfg);
  sim.inject(messages, 1);
  sim.run();
  return sim.result();
}

SimResult simulate_adaptive(const Network& net, const RoutingResult& escape,
                            std::uint32_t adaptive_vls,
                            const std::vector<Message>& messages,
                            const SimConfig& cfg) {
  NUE_CHECK(adaptive_vls >= 1);
  NUE_CHECK_MSG(escape.num_vls() == 1,
                "escape routing must be a single-VL deadlock-free routing");
  EventSimulator sim(net, escape, cfg, adaptive_vls);
  sim.inject(messages, 1);
  sim.run();
  return sim.result();
}

}  // namespace nue
