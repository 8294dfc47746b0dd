// semperm/simmpi/runtime.hpp
//
// A small in-process MPI-like runtime: ranks are threads, messages move
// through per-rank mailboxes, and every rank owns a real MatchEngine built
// from a QueueConfig — so applications written against this API exercise
// exactly the matching data structures the study is about.
//
// Supported surface (deliberately the subset the paper's workloads need):
//  * blocking send/recv with tags, MPI_ANY_SOURCE / MPI_ANY_TAG wildcards;
//  * nonblocking isend/irecv + wait/wait_all;
//  * communicator duplication (separate matching context ids);
//  * collectives: barrier, broadcast, reduce-sum, allreduce-sum
//    (binomial-tree implementations over point-to-point).
//
// Wire protocol: messages at or below the eager threshold are buffered at
// the receiver immediately (eager). Larger messages use a rendezvous
// protocol, as real MPI implementations do: the sender ships a small RTS
// (ready-to-send) control message that carries only the envelope — it is
// the RTS that flows through the matching engine, which is exactly why
// unexpected-queue entries need no payload storage — the receiver answers
// with a CTS once a receive matches, and only then does the payload move,
// straight into the posted buffer. Rendezvous sends block until the CTS
// arrives but keep draining their own mailbox meanwhile, so opposing
// simultaneous rendezvous sends cannot deadlock.
//
// MPI's per-(source, destination, communicator) non-overtaking order holds
// because mailboxes are FIFO and the matching engine searches in arrival
// order.
//
// Reliability sublayer (DESIGN.md §12): when a fault plan with active
// network sites is installed (RuntimeOptions::fault_plan), every wire
// frame carries a per-(src, dst) sequence number and moves through a
// go-back-nothing transport: receivers deliver strictly in sequence
// (parking out-of-order frames, discarding duplicates, cumulative-acking
// progress) and senders buffer frames until acked, retransmitting on a
// capped-exponential-backoff timer. The protocol layer above — matching,
// rendezvous, collectives — observes a per-pair frame stream
// bit-identical to a fault-free run, which is the property the chaos
// tests pin. Without such a plan frames take the direct deliver() path
// unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <atomic>
#include <map>

#include "common/mem_policy.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "fault/fault.hpp"
#include "match/engine.hpp"
#include "match/factory.hpp"
#include "simmpi/network_model.hpp"

namespace semperm::simmpi {

/// Wildcards re-exported for API convenience.
inline constexpr std::int32_t kAnySource = match::kAnySource;
inline constexpr std::int32_t kAnyTag = match::kAnyTag;

struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

class Runtime;
class Comm;

/// Handle to a pending nonblocking operation.
class Request {
 public:
  Request() = default;
  bool valid() const { return req_ != nullptr; }

 private:
  friend class Comm;
  match::MatchRequest* req_ = nullptr;
  int owner_rank = -1;
};

/// Per-rank communicator handle. Obtained inside the rank main function;
/// do not share across rank threads.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // --- point to point -------------------------------------------------
  void send(int dest, int tag, std::span<const std::byte> data);
  Status recv(int source, int tag, std::span<std::byte> buffer);

  Request isend(int dest, int tag, std::span<const std::byte> data);
  Request irecv(int source, int tag, std::span<std::byte> buffer);
  Status wait(Request& request);
  void wait_all(std::span<Request> requests);

  /// Drain any delivered-but-unprocessed messages into the match engine.
  void progress();

  /// Nonblocking probe (MPI_Iprobe): has a message matching (source, tag)
  /// arrived and not yet been received? Returns its Status without
  /// consuming it. Note that with the rendezvous protocol the reported
  /// byte count of a not-yet-received large message is 0 (only the RTS
  /// has arrived).
  std::optional<Status> iprobe(int source, int tag);

  /// Cancel a pending nonblocking receive (MPI_Cancel + MPI_Request_free):
  /// true if the receive was still queued and was removed; false if it
  /// already matched (it must then be completed with wait()).
  bool cancel(Request& request);

  // --- collectives ----------------------------------------------------
  void barrier();
  void bcast(int root, std::span<std::byte> data);
  double reduce_sum(int root, double value);
  double allreduce_sum(double value);
  /// Root gathers `chunk` bytes from every rank into `out` (size x chunk
  /// bytes, rank order). `out` may be empty on non-root ranks.
  void gather(int root, std::span<const std::byte> chunk,
              std::span<std::byte> out);
  /// Root scatters consecutive `chunk`-sized pieces of `in` to the ranks.
  void scatter(int root, std::span<const std::byte> in,
               std::span<std::byte> chunk);
  /// Every rank sends piece i of `in` to rank i and receives piece r from
  /// every rank r into `out`; both are size x chunk bytes.
  void alltoall(std::span<const std::byte> in, std::span<std::byte> out);

  /// Duplicate: same group, fresh matching context.
  Comm dup() const;

  /// Typed convenience overloads.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, std::as_bytes(std::span<const T>(&v, 1)));
  }
  template <typename T>
  T recv_value(int source, int tag) {
    T v{};
    recv(source, tag, std::as_writable_bytes(std::span<T>(&v, 1)));
    return v;
  }

 private:
  friend class Runtime;
  Comm(Runtime* rt, int rank, std::uint16_t ctx_ptp, std::uint16_t ctx_coll)
      : rt_(rt), rank_(rank), ctx_ptp_(ctx_ptp), ctx_coll_(ctx_coll) {}

  void send_ctx(int dest, int tag, std::span<const std::byte> data,
                std::uint16_t ctx);
  Status recv_ctx(int source, int tag, std::span<std::byte> buffer,
                  std::uint16_t ctx);
  Request irecv_ctx(int source, int tag, std::span<std::byte> buffer,
                    std::uint16_t ctx);

  Runtime* rt_ = nullptr;
  int rank_ = -1;
  std::uint16_t ctx_ptp_ = 0;
  std::uint16_t ctx_coll_ = 1;
};

struct RuntimeOptions {
  /// Payloads larger than this use the rendezvous protocol.
  std::size_t eager_threshold = 16 * 1024;

  // --- reliability sublayer (active only with a plan whose network
  // sites fire) -------------------------------------------------------
  /// Fault scenario to inject; must outlive the Runtime. nullptr = the
  /// wire is perfectly reliable and frames bypass the transport.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Initial retransmit timeout (wall clock); doubles per attempt.
  std::uint64_t retransmit_timeout_ns = 200'000;
  /// Backoff ceiling for the retransmit timer.
  std::uint64_t retransmit_backoff_cap_ns = 2'000'000;
  /// How long a reorder-held frame may wait for a successor before the
  /// retransmit service force-releases it.
  std::uint64_t reorder_hold_ns = 500'000;
  /// Poll granularity of blocked ranks while the transport is active
  /// (a sleeping sender must wake to run its retransmit timers).
  std::uint64_t transport_poll_ns = 50'000;
};

class Runtime {
 public:
  /// Build a runtime of `nranks` ranks whose engines use `qcfg`.
  Runtime(int nranks, match::QueueConfig qcfg, RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Launch one thread per rank running `rank_main`, and join them all.
  /// Exceptions thrown by rank functions are rethrown (first wins).
  void run(const std::function<void(Comm&)>& rank_main);

  int size() const { return nranks_; }

  /// Aggregate PRQ search stats over all ranks (after run()).
  match::SearchStats aggregate_prq_stats() const;
  match::SearchStats aggregate_umq_stats() const;

  /// Aggregate transport accounting over all ranks (after run()). All
  /// zeros when the reliability sublayer is inactive. At quiesce the
  /// conservation identity WireStats::conserved() holds exactly.
  fault::WireStats wire_stats() const;
  /// Aggregate injector counts over all ranks (after run()).
  fault::FaultStats fault_stats() const;
  /// Is the reliability transport live (plan installed, network sites
  /// active)?
  bool transport_active() const { return transport_active_; }

 private:
  friend class Comm;

  enum class WireKind : std::uint8_t {
    kEager,    // envelope + payload, buffered on arrival
    kRts,      // rendezvous ready-to-send: envelope only
    kCts,      // rendezvous clear-to-send: back to the sender
    kRdvData,  // rendezvous payload, addressed by rendezvous id
    kAck,      // transport cumulative ack (wire_seq = acked seq)
  };

  struct WireMessage {
    WireKind kind = WireKind::kEager;
    match::Envelope env;
    std::vector<std::byte> payload;
    std::uint64_t rdv_id = 0;
    int origin = -1;  // sending rank (CTS routing, transport pair id)
    /// Transport sequence number on the (origin, dest) pair; 1-based.
    /// 0 = unsequenced (reliable wire, or an ack frame's own header —
    /// an ack carries the acked seq here instead).
    std::uint64_t wire_seq = 0;
  };

  /// A buffered unexpected message: the request the UMQ entry points at,
  /// plus the payload (eager) or the rendezvous coordinates (RTS).
  struct UnexpectedHolder {
    match::MatchRequest req;
    std::vector<std::byte> payload;
    match::Envelope env;
    bool is_rdv = false;
    std::uint64_t rdv_id = 0;
    int origin = -1;
  };

  /// A frame held back on the sender side by reorder/delay injection.
  struct HeldFrame {
    WireMessage msg;
    std::uint64_t release_at_ns = 0;
    bool release_on_next_send = false;  // reorder: freed by the successor
  };

  /// Sender side of one (self -> dst) pair.
  struct PairTx {
    std::uint64_t next_wire_seq = 1;
    struct Unacked {
      WireMessage msg;  // full copy: retransmission source
      std::uint64_t next_retx_ns = 0;
      std::uint32_t attempts = 0;  // transmissions so far minus one
    };
    std::map<std::uint64_t, Unacked> unacked;  // ordered: cumulative acks
    std::vector<HeldFrame> held;
  };

  /// Receiver side of one (src -> self) pair.
  struct PairRx {
    std::uint64_t expected = 1;  // next in-order wire_seq
    std::map<std::uint64_t, WireMessage> parked;  // out-of-order buffer
    std::uint64_t ack_no = 0;  // acks sent on this pair (drop-roll index)
  };

  /// Per-rank reliability transport; allocated only when the installed
  /// fault plan has active network sites.
  /// All fields are guarded by the rank's state mutex.
  struct Transport {
    explicit Transport(const fault::FaultPlan& plan) : injector(plan) {}
    fault::FaultInjector injector;
    fault::WireStats stats;
    std::unordered_map<int, PairTx> tx;  // keyed by destination rank
    std::unordered_map<int, PairRx> rx;  // keyed by source rank
  };

  struct RankState {
    // Lock order: `mutex` (engine + rendezvous maps) may be held while
    // taking any rank's `mailbox_mutex`; mailbox mutexes are leaves, so
    // control messages can be delivered from inside a drain.
    Mutex mutex;
    CondVar cv;
    Mutex mailbox_mutex;
    std::deque<WireMessage> mailbox GUARDED_BY(mailbox_mutex);
    // `bundle`, `self`, `transport` are written once at construction,
    // before any rank thread exists; left unannotated so the aggregate
    // stats readers (post-join) stay warning-free.
    match::EngineBundle<NativeMem> bundle;
    std::deque<std::unique_ptr<match::MatchRequest>> recv_requests
        GUARDED_BY(mutex);
    std::unordered_map<match::MatchRequest*, std::unique_ptr<UnexpectedHolder>>
        unexpected GUARDED_BY(mutex);
    // Rendezvous state. `cts_received` follows the same locking discipline
    // but stays unannotated: wait_progress() predicates read it from
    // lambdas, which Clang's analysis treats as separate unlocked
    // functions (a documented analysis limitation).
    std::unordered_map<std::uint64_t, match::MatchRequest*> rdv_pending
        GUARDED_BY(mutex);
    std::unordered_set<std::uint64_t> cts_received;
    std::uint64_t next_rdv GUARDED_BY(mutex) = 1;
    std::uint64_t next_seq GUARDED_BY(mutex) = 1;
    int self = -1;
    std::unique_ptr<Transport> transport;  // null = reliable wire
  };

  RankState& state(int rank);
  void deliver(int dest, WireMessage msg);

  /// Wire egress: route through the reliability transport when active,
  /// or straight to deliver(). Must NOT be called with the sender's
  /// state mutex held (use transmit_locked then).
  void transmit(int src, int dst, WireMessage&& msg);
  /// As transmit(), caller holding the sender's state mutex.
  void transmit_locked(RankState& st, int dst, WireMessage&& msg)
      REQUIRES(st.mutex);

  /// Progress loop: drain + check `done` under the state mutex; sleep on
  /// the mailbox condition variable only while the mailbox is verifiably
  /// empty (checked under the mailbox mutex), so a concurrent deliver()
  /// can never be lost. With the transport active the sleep is bounded
  /// so this rank's retransmit timers keep running while it blocks.
  template <class Pred>
  void wait_progress(int rank, RankState& st, Pred&& done) {
    for (;;) {
      {
        MutexLock lock(st.mutex);
        drain_locked(rank, st);
        if (st.transport) service_transport_locked(st);
        if (done()) return;
      }
      UniqueLock mlock(st.mailbox_mutex);
      if (!st.mailbox.empty()) continue;  // more work arrived: go drain it
      if (st.transport)
        st.cv.wait_for_ns(mlock, options_.transport_poll_ns);
      else
        st.cv.wait(mlock);
    }
  }
  /// Pump `rank`'s mailbox into its engine. Caller holds the rank's state
  /// mutex (`RankState::mutex`).
  void drain_locked(int rank, RankState& st) REQUIRES(st.mutex);
  /// Hand one in-order frame to the protocol layer (the body of the old
  /// drain switch). Caller holds the rank's state mutex.
  void protocol_deliver_locked(RankState& st, WireMessage& msg)
      REQUIRES(st.mutex);

  // --- reliability transport (callers hold the rank's state mutex) ----
  /// One transmission attempt of `frame` on (st.self -> dst): roll the
  /// injector, then drop, hold, or deliver (plus an optional duplicate).
  void attempt_transmit_locked(RankState& st, int dst, PairTx& tx,
                               const WireMessage& frame, std::uint32_t attempt)
      REQUIRES(st.mutex);
  /// Receive-side sequencing: consume `msg`, appending any frames that
  /// became deliverable in order to `ready` (possibly none).
  void transport_rx_locked(RankState& st, WireMessage&& msg,
                           std::vector<WireMessage>& ready) REQUIRES(st.mutex);
  /// Run retransmit timers and release due held frames for this rank.
  void service_transport_locked(RankState& st) REQUIRES(st.mutex);
  void send_ack_locked(RankState& st, int to, std::uint64_t ack_seq)
      REQUIRES(st.mutex);
  /// Post-rank_main drain loop: keep servicing retransmits/acks until no
  /// unacked or held frame remains anywhere in the runtime.
  void quiesce(int rank);
  /// A receive matched an RTS: answer with CTS and park the receive until
  /// the payload arrives. Caller holds the rank's state mutex.
  void accept_rendezvous(RankState& st, UnexpectedHolder& holder,
                         match::MatchRequest* recv) REQUIRES(st.mutex);

  int nranks_;
  match::QueueConfig qcfg_;
  RuntimeOptions options_;
  bool transport_active_ = false;
  /// Unacked frames + sender-held frames, runtime-wide: the quiesce
  /// loops spin until this reaches zero.
  std::atomic<std::uint64_t> wire_outstanding_{0};
  NativeMem native_mem_;
  memlayout::AddressSpace space_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::uint16_t next_ctx_ GUARDED_BY(ctx_mutex_) = 2;  // 0/1: world ptp/coll
  Mutex ctx_mutex_;
};

}  // namespace semperm::simmpi
