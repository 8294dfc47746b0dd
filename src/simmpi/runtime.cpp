#include "simmpi/runtime.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace semperm::simmpi {

namespace {
// Collective tag space on the dedicated collective context.
constexpr std::int32_t kBarrierTagBase = 1000;  // + round index
constexpr std::int32_t kBcastTag = 2000;
constexpr std::int32_t kReduceTag = 3000;
constexpr std::int32_t kDupTag = 4000;
constexpr std::int32_t kGatherTag = 5000;
constexpr std::int32_t kScatterTag = 6000;
constexpr std::int32_t kAlltoallTag = 7000;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // semperm-analyze: allow(determinism-wall-clock) -- transport retransmit timers pace real sleeping threads; protocol-visible frame order is sequence-number-deterministic regardless
              .time_since_epoch())
          .count());
}
}  // namespace

// --------------------------------------------------------------------
// Runtime
// --------------------------------------------------------------------

Runtime::Runtime(int nranks, match::QueueConfig qcfg, RuntimeOptions options)
    : nranks_(nranks), qcfg_(std::move(qcfg)), options_(options) {
  SEMPERM_ASSERT(nranks_ > 0 && nranks_ <= 32767);
  if (qcfg_.kind == match::QueueKind::kOmpiBins ||
      qcfg_.kind == match::QueueKind::kFourDim)
    qcfg_.bins = static_cast<std::size_t>(nranks_);
  transport_active_ = options_.fault_plan != nullptr &&
                      options_.fault_plan->network_active();
  ranks_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    auto st = std::make_unique<RankState>();
    st->bundle = match::make_engine(native_mem_, space_, qcfg_);
    st->self = r;
    if (transport_active_)
      st->transport = std::make_unique<Transport>(*options_.fault_plan);
    ranks_.push_back(std::move(st));
  }
}

Runtime::~Runtime() = default;

Runtime::RankState& Runtime::state(int rank) {
  SEMPERM_ASSERT(rank >= 0 && rank < nranks_);
  return *ranks_[static_cast<std::size_t>(rank)];
}

void Runtime::deliver(int dest, WireMessage msg) {
  RankState& st = state(dest);
  {
    // Mailbox mutexes are leaves in the lock order: delivering is safe
    // even while the caller holds its own rank's state mutex (control
    // messages sent from inside a drain).
    MutexLock lock(st.mailbox_mutex);
    st.mailbox.push_back(std::move(msg));
  }
  st.cv.notify_all();
}

void Runtime::accept_rendezvous(RankState& st, UnexpectedHolder& holder,
                                match::MatchRequest* recv) {
  SEMPERM_ASSERT(holder.is_rdv);
  // Park the receive until the payload lands, and clear the sender.
  st.rdv_pending.emplace(holder.rdv_id, recv);
  WireMessage cts;
  cts.kind = WireKind::kCts;
  cts.rdv_id = holder.rdv_id;
  cts.origin = st.self;
  transmit_locked(st, holder.origin, std::move(cts));
}

void Runtime::drain_locked(int rank, RankState& st) {
  (void)rank;
  std::deque<WireMessage> batch;
  {
    MutexLock lock(st.mailbox_mutex);
    batch.swap(st.mailbox);
  }
  if (st.transport) {
    std::vector<WireMessage> ready;
    for (WireMessage& msg : batch) {
      ready.clear();
      transport_rx_locked(st, std::move(msg), ready);
      for (WireMessage& m : ready) protocol_deliver_locked(st, m);
    }
    return;
  }
  for (WireMessage& msg : batch) protocol_deliver_locked(st, msg);
}

void Runtime::protocol_deliver_locked(RankState& st, WireMessage& msg) {
  switch (msg.kind) {
    case WireKind::kAck:
      SEMPERM_ASSERT_MSG(false, "transport ack reached the protocol layer");
      return;
    case WireKind::kCts: {
      st.cts_received.insert(msg.rdv_id);
      return;
    }
    case WireKind::kRdvData: {
      const auto it = st.rdv_pending.find(msg.rdv_id);
      SEMPERM_ASSERT_MSG(it != st.rdv_pending.end(),
                         "rendezvous data without a pending receive");
      match::MatchRequest* recv = it->second;
      SEMPERM_ASSERT_MSG(msg.payload.size() <= recv->bytes(),
                         "rendezvous payload overflows receive buffer");
      if (!msg.payload.empty())
        std::memcpy(recv->buffer(), msg.payload.data(), msg.payload.size());
      recv->set_cookie(msg.payload.size());
      recv->mark_complete();
      st.rdv_pending.erase(it);
      return;
    }
    case WireKind::kEager:
    case WireKind::kRts:
      break;
  }
  auto holder = std::make_unique<UnexpectedHolder>();
  holder->req = match::MatchRequest(match::RequestKind::kUnexpected,
                                    st.next_seq++);
  holder->payload = std::move(msg.payload);
  holder->env = msg.env;
  holder->is_rdv = msg.kind == WireKind::kRts;
  holder->rdv_id = msg.rdv_id;
  holder->origin = msg.origin;
  match::MatchRequest* recv =
      st.bundle->incoming(msg.env, &holder->req);
  if (recv != nullptr) {
    if (holder->is_rdv) {
      // Matching happened on the RTS; the payload follows after CTS.
      accept_rendezvous(st, *holder, recv);
      recv->unmark_complete();
      return;  // holder dies: the RTS is consumed
    }
    // Eager: copy straight into the posted buffer.
    SEMPERM_ASSERT_MSG(holder->payload.size() <= recv->bytes(),
                       "message (" << holder->payload.size()
                                   << " B) overflows receive buffer ("
                                   << recv->bytes() << " B)");
    if (!holder->payload.empty())
      std::memcpy(recv->buffer(), holder->payload.data(),
                  holder->payload.size());
    recv->set_cookie(holder->payload.size());
    // holder dies here; the message is consumed.
  } else {
    // Buffered as unexpected (an RTS buffers with no payload — the
    // reason the 16-byte UMQ entries need no payload storage).
    st.unexpected.emplace(&holder->req, std::move(holder));
  }
}

// --------------------------------------------------------------------
// Reliability transport
// --------------------------------------------------------------------

void Runtime::transmit(int src, int dst, WireMessage&& msg) {
  if (transport_active_) {
    RankState& st = state(src);
    MutexLock lock(st.mutex);
    transmit_locked(st, dst, std::move(msg));
    return;
  }
  deliver(dst, std::move(msg));
}

void Runtime::transmit_locked(RankState& st, int dst, WireMessage&& msg) {
  if (!st.transport) {
    deliver(dst, std::move(msg));
    return;
  }
  Transport& t = *st.transport;
  PairTx& tx = t.tx[dst];
  msg.origin = st.self;
  msg.wire_seq = tx.next_wire_seq++;
  t.stats.frames_sent += 1;
  wire_outstanding_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t now = steady_now_ns();
  PairTx::Unacked u;
  u.msg = msg;  // copy kept for retransmission
  u.next_retx_ns = now + options_.retransmit_timeout_ns;
  u.attempts = 0;
  tx.unacked.emplace(msg.wire_seq, std::move(u));
  // Reorder-held predecessors release behind this frame: snapshot them
  // before the attempt so a hold decided for THIS frame stays held.
  std::vector<HeldFrame> releasing;
  for (auto it = tx.held.begin(); it != tx.held.end();) {
    if (it->release_on_next_send) {
      releasing.push_back(std::move(*it));
      it = tx.held.erase(it);
    } else {
      ++it;
    }
  }
  attempt_transmit_locked(st, dst, tx, msg, /*attempt=*/0);
  for (HeldFrame& h : releasing) {
    wire_outstanding_.fetch_sub(1, std::memory_order_relaxed);
    deliver(dst, std::move(h.msg));
  }
}

void Runtime::attempt_transmit_locked(RankState& st, int dst, PairTx& tx,
                                      const WireMessage& frame,
                                      std::uint32_t attempt) {
  Transport& t = *st.transport;
  if (attempt > 0) t.stats.retransmissions += 1;
  const fault::FaultDecision d =
      t.injector.decide(st.self, dst, frame.wire_seq, attempt);
  if (d.drop) {
    t.stats.wire_drops += 1;  // the retransmit timer recovers it
    return;
  }
  if (d.reorder || d.delay_ns != 0) {
    HeldFrame h;
    h.msg = frame;
    h.release_on_next_send = d.reorder;
    h.release_at_ns =
        steady_now_ns() + (d.reorder ? options_.reorder_hold_ns : d.delay_ns);
    tx.held.push_back(std::move(h));
    wire_outstanding_.fetch_add(1, std::memory_order_relaxed);
  } else {
    deliver(dst, WireMessage(frame));
  }
  if (d.duplicate) {
    t.stats.dup_copies += 1;
    deliver(dst, WireMessage(frame));
  }
}

void Runtime::transport_rx_locked(RankState& st, WireMessage&& msg,
                                  std::vector<WireMessage>& ready) {
  Transport& t = *st.transport;
  if (msg.kind == WireKind::kAck) {
    // Cumulative: everything at or below the acked seq is delivered.
    PairTx& tx = t.tx[msg.origin];
    auto it = tx.unacked.begin();
    while (it != tx.unacked.end() && it->first <= msg.wire_seq) {
      wire_outstanding_.fetch_sub(1, std::memory_order_relaxed);
      it = tx.unacked.erase(it);
    }
    return;
  }
  SEMPERM_ASSERT_MSG(msg.wire_seq != 0,
                     "unsequenced frame on an active transport");
  const int src = msg.origin;
  PairRx& rx = t.rx[src];
  if (msg.wire_seq < rx.expected) {
    // Stale duplicate (retransmission raced the ack, or an injected
    // copy). Re-ack: the original ack may have been lost.
    t.stats.dup_suppressed += 1;
    send_ack_locked(st, src, rx.expected - 1);
    return;
  }
  if (msg.wire_seq > rx.expected) {
    // Out of order: park it (drop injected extra copies of parked seqs).
    if (rx.parked.emplace(msg.wire_seq, std::move(msg)).second)
      t.stats.parked += 1;
    else
      t.stats.dup_suppressed += 1;
    return;
  }
  // In order: hand over, then unpark the run it unblocked.
  ready.push_back(std::move(msg));
  t.stats.delivered += 1;
  rx.expected += 1;
  for (auto it = rx.parked.begin();
       it != rx.parked.end() && it->first == rx.expected;
       it = rx.parked.erase(it)) {
    ready.push_back(std::move(it->second));
    t.stats.delivered += 1;
    rx.expected += 1;
  }
  send_ack_locked(st, src, rx.expected - 1);
}

void Runtime::send_ack_locked(RankState& st, int to, std::uint64_t ack_seq) {
  Transport& t = *st.transport;
  PairRx& rx = t.rx[to];
  t.stats.acks_sent += 1;
  if (t.injector.drop_ack(st.self, to, rx.ack_no++)) {
    // A lost ack costs a retransmission, which re-acks on arrival.
    t.stats.ack_drops += 1;
    return;
  }
  WireMessage ack;
  ack.kind = WireKind::kAck;
  ack.origin = st.self;
  ack.wire_seq = ack_seq;
  deliver(to, std::move(ack));
}

void Runtime::service_transport_locked(RankState& st) {
  Transport& t = *st.transport;
  const std::uint64_t now = steady_now_ns();
  for (auto& [dst, tx] : t.tx) {
    // Force-release held frames whose deadline passed (a reorder hold
    // with no successor, or an elapsed delay spike).
    for (auto it = tx.held.begin(); it != tx.held.end();) {
      if (now >= it->release_at_ns) {
        wire_outstanding_.fetch_sub(1, std::memory_order_relaxed);
        deliver(dst, std::move(it->msg));
        it = tx.held.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [seq, u] : tx.unacked) {
      if (now < u.next_retx_ns) continue;
      u.attempts += 1;
      attempt_transmit_locked(st, dst, tx, u.msg, u.attempts);
      // Capped exponential backoff on the retransmit timer.
      const std::uint64_t shift = u.attempts < 6 ? u.attempts : 6;
      std::uint64_t rto = options_.retransmit_timeout_ns << shift;
      if (rto > options_.retransmit_backoff_cap_ns)
        rto = options_.retransmit_backoff_cap_ns;
      u.next_retx_ns = now + rto;
    }
  }
}

void Runtime::quiesce(int rank) {
  // rank_main returned, but frames this rank sent may still be unacked,
  // and peers may still retransmit to it. Keep the transport breathing
  // until the whole runtime has no unacked or held frame left.
  RankState& st = state(rank);
  for (;;) {
    {
      MutexLock lock(st.mutex);
      drain_locked(rank, st);
      service_transport_locked(st);
    }
    if (wire_outstanding_.load(std::memory_order_acquire) == 0) {
      MutexLock mlock(st.mailbox_mutex);
      if (st.mailbox.empty()) return;
      continue;  // late duplicates still queued: drain them
    }
    UniqueLock mlock(st.mailbox_mutex);
    if (!st.mailbox.empty()) continue;
    st.cv.wait_for_ns(mlock, options_.transport_poll_ns);
  }
}

void Runtime::run(const std::function<void(Comm&)>& rank_main) {
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  // Function-local, guards only the error capture below; annotating it
  // would buy nothing since Clang analyzes the lambda separately anyway.
  std::mutex error_mutex;  // lint:allow-std-mutex
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, r, &rank_main, &first_error, &error_mutex] {
      try {
        SEMPERM_TRACE_ONLY(
            if (semperm::obs::trace_on()) semperm::obs::set_thread_name(
                "rank " + std::to_string(r));)
        Comm comm(this, r, /*ctx_ptp=*/0, /*ctx_coll=*/1);
        rank_main(comm);
        if (transport_active_) quiesce(r);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);  // lint:allow-std-mutex
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (transport_active_) {
    const fault::WireStats ws = wire_stats();
    auto& mr = obs::MetricsRegistry::global();
    mr.counter("simmpi.retransmissions").add(ws.retransmissions);
    mr.counter("simmpi.dup_suppressed").add(ws.dup_suppressed);
    mr.counter("simmpi.wire_drops").add(ws.wire_drops);
  }
  if (first_error) std::rethrow_exception(first_error);
}

match::SearchStats Runtime::aggregate_prq_stats() const {
  match::SearchStats total;
  for (const auto& st : ranks_) total.merge(st->bundle.engine->prq().stats());
  return total;
}

match::SearchStats Runtime::aggregate_umq_stats() const {
  match::SearchStats total;
  for (const auto& st : ranks_) total.merge(st->bundle.engine->umq().stats());
  return total;
}

fault::WireStats Runtime::wire_stats() const {
  fault::WireStats total;
  for (const auto& st : ranks_)
    if (st->transport) total.merge(st->transport->stats);
  return total;
}

fault::FaultStats Runtime::fault_stats() const {
  fault::FaultStats total;
  for (const auto& st : ranks_)
    if (st->transport) total.merge(st->transport->injector.stats());
  return total;
}

// --------------------------------------------------------------------
// Comm — point to point
// --------------------------------------------------------------------

int Comm::size() const { return rt_->size(); }

void Comm::send_ctx(int dest, int tag, std::span<const std::byte> data,
                    std::uint16_t ctx) {
  SEMPERM_ASSERT(dest >= 0 && dest < size());
  SEMPERM_ASSERT(tag >= 0 && tag != match::kHoleTag);
  SEMPERM_TRACE_SPAN_BEGIN(semperm::obs::Category::kMpi, "send", 0,
                           data.size());
  const match::Envelope env{tag, static_cast<std::int16_t>(rank_), ctx};
  if (data.size() <= rt_->options_.eager_threshold) {
    Runtime::WireMessage msg;
    msg.env = env;
    msg.origin = rank_;
    msg.payload.assign(data.begin(), data.end());
    rt_->transmit(rank_, dest, std::move(msg));
    SEMPERM_TRACE_SPAN_END(semperm::obs::Category::kMpi, "send", 0,
                           data.size(), static_cast<double>(dest));
    return;
  }

  // Rendezvous: ship the RTS (envelope only), wait for the CTS while
  // progressing our own mailbox, then move the payload.
  Runtime::RankState& st = rt_->state(rank_);
  std::uint64_t id = 0;
  {
    MutexLock lock(st.mutex);
    id = (static_cast<std::uint64_t>(rank_) << 32) | st.next_rdv++;
  }
  Runtime::WireMessage rts;
  rts.kind = Runtime::WireKind::kRts;
  rts.env = env;
  rts.rdv_id = id;
  rts.origin = rank_;
  rt_->transmit(rank_, dest, std::move(rts));
  rt_->wait_progress(rank_, st,
                     [&] { return st.cts_received.count(id) != 0; });
  {
    MutexLock lock(st.mutex);
    st.cts_received.erase(id);
  }
  Runtime::WireMessage payload;
  payload.kind = Runtime::WireKind::kRdvData;
  payload.rdv_id = id;
  payload.origin = rank_;
  payload.payload.assign(data.begin(), data.end());
  rt_->transmit(rank_, dest, std::move(payload));
  SEMPERM_TRACE_SPAN_END(semperm::obs::Category::kMpi, "send", 0, data.size(),
                         static_cast<double>(dest));
}

void Comm::send(int dest, int tag, std::span<const std::byte> data) {
  send_ctx(dest, tag, data, ctx_ptp_);
}

Request Comm::isend(int dest, int tag, std::span<const std::byte> data) {
  // Small payloads are buffered at the receiver immediately; rendezvous
  // payloads complete the handshake inside this call (progressing our own
  // mailbox meanwhile), so isend of a large message behaves like MPI_Ssend
  // — callers should pre-post matching receives, as portable MPI programs
  // must for symmetric large exchanges anyway.
  send(dest, tag, data);
  Request r;
  r.owner_rank = rank_;  // valid() stays false: nothing to wait for
  return r;
}

Status Comm::recv_ctx(int source, int tag, std::span<std::byte> buffer,
                      std::uint16_t ctx) {
  SEMPERM_TRACE_SPAN_BEGIN(semperm::obs::Category::kMpi, "recv", 0,
                           buffer.size());
  Runtime::RankState& st = rt_->state(rank_);
  UniqueLock lock(st.mutex);
  rt_->drain_locked(rank_, st);

  auto req = std::make_unique<match::MatchRequest>(match::RequestKind::kRecv,
                                                   st.next_seq++);
  match::MatchRequest* reqp = req.get();
  reqp->set_payload(buffer.data(), buffer.size());
  const match::Pattern pattern =
      match::Pattern::make(source, tag, ctx);
  match::MatchRequest* msg = st.bundle->post_recv(pattern, reqp);
  if (msg != nullptr) {
    // Matched a buffered unexpected message (eager payload or RTS).
    auto it = st.unexpected.find(msg);
    SEMPERM_ASSERT(it != st.unexpected.end());
    if (it->second->is_rdv) {
      rt_->accept_rendezvous(st, *it->second, reqp);
      reqp->unmark_complete();
      st.unexpected.erase(it);
    } else {
      auto& payload = it->second->payload;
      SEMPERM_ASSERT_MSG(payload.size() <= buffer.size(),
                         "unexpected message overflows receive buffer");
      if (!payload.empty())
        std::memcpy(buffer.data(), payload.data(), payload.size());
      reqp->set_cookie(payload.size());
      st.unexpected.erase(it);
    }
  }
  if (!reqp->complete()) {
    lock.unlock();
    rt_->wait_progress(rank_, st, [&] { return reqp->complete(); });
    lock.lock();
  }
  Status status;
  status.source = reqp->matched().rank;
  status.tag = reqp->matched().tag;
  status.bytes = static_cast<std::size_t>(reqp->cookie());
  SEMPERM_TRACE_SPAN_END(semperm::obs::Category::kMpi, "recv", 0, status.bytes,
                         static_cast<double>(status.source));
  return status;
}

Status Comm::recv(int source, int tag, std::span<std::byte> buffer) {
  return recv_ctx(source, tag, buffer, ctx_ptp_);
}

Request Comm::irecv(int source, int tag, std::span<std::byte> buffer) {
  return irecv_ctx(source, tag, buffer, ctx_ptp_);
}

Request Comm::irecv_ctx(int source, int tag, std::span<std::byte> buffer,
                        std::uint16_t ctx) {
  Runtime::RankState& st = rt_->state(rank_);
  MutexLock lock(st.mutex);
  rt_->drain_locked(rank_, st);

  auto req = std::make_unique<match::MatchRequest>(match::RequestKind::kRecv,
                                                   st.next_seq++);
  match::MatchRequest* reqp = req.get();
  reqp->set_payload(buffer.data(), buffer.size());
  match::MatchRequest* msg =
      st.bundle->post_recv(match::Pattern::make(source, tag, ctx), reqp);
  if (msg != nullptr) {
    auto it = st.unexpected.find(msg);
    SEMPERM_ASSERT(it != st.unexpected.end());
    if (it->second->is_rdv) {
      rt_->accept_rendezvous(st, *it->second, reqp);
      reqp->unmark_complete();
      st.unexpected.erase(it);
    } else {
      auto& payload = it->second->payload;
      SEMPERM_ASSERT_MSG(payload.size() <= buffer.size(),
                         "unexpected message overflows receive buffer");
      if (!payload.empty())
        std::memcpy(buffer.data(), payload.data(), payload.size());
      reqp->set_cookie(payload.size());
      st.unexpected.erase(it);
    }
  }
  st.recv_requests.push_back(std::move(req));
  Request r;
  r.req_ = reqp;
  r.owner_rank = rank_;
  return r;
}

Status Comm::wait(Request& request) {
  Status status;
  if (!request.valid()) return status;  // completed send or empty request
  SEMPERM_ASSERT_MSG(request.owner_rank == rank_,
                     "waiting on another rank's request");
  Runtime::RankState& st = rt_->state(rank_);
  match::MatchRequest* reqp = request.req_;
  rt_->wait_progress(rank_, st, [&] { return reqp->complete(); });
  {
    MutexLock lock(st.mutex);
    status.source = reqp->matched().rank;
    status.tag = reqp->matched().tag;
    status.bytes = static_cast<std::size_t>(reqp->cookie());
    // Retire the request object.
    for (auto it = st.recv_requests.begin(); it != st.recv_requests.end(); ++it) {
      if (it->get() == reqp) {
        st.recv_requests.erase(it);
        break;
      }
    }
  }
  request.req_ = nullptr;
  return status;
}

void Comm::wait_all(std::span<Request> requests) {
  for (Request& r : requests) wait(r);
}

void Comm::progress() {
  Runtime::RankState& st = rt_->state(rank_);
  MutexLock lock(st.mutex);
  rt_->drain_locked(rank_, st);
}

std::optional<Status> Comm::iprobe(int source, int tag) {
  Runtime::RankState& st = rt_->state(rank_);
  MutexLock lock(st.mutex);
  rt_->drain_locked(rank_, st);
  const auto env =
      st.bundle->probe(match::Pattern::make(source, tag, ctx_ptp_));
  if (!env.has_value()) return std::nullopt;
  Status status;
  status.source = env->rank;
  status.tag = env->tag;
  // Byte count: the FIFO-earliest buffered holder with this envelope
  // (probe is a slow path; the map scan is fine). A pending rendezvous
  // RTS reports 0 bytes — only the envelope has arrived.
  const Runtime::UnexpectedHolder* first = nullptr;
  for (const auto& [req, holder] : st.unexpected) {
    (void)req;
    if (holder->env == *env &&
        (first == nullptr || holder->req.seq() < first->req.seq()))
      first = holder.get();
  }
  if (first != nullptr && !first->is_rdv) status.bytes = first->payload.size();
  return status;
}

bool Comm::cancel(Request& request) {
  if (!request.valid()) return false;
  SEMPERM_ASSERT_MSG(request.owner_rank == rank_,
                     "cancelling another rank's request");
  Runtime::RankState& st = rt_->state(rank_);
  MutexLock lock(st.mutex);
  match::MatchRequest* reqp = request.req_;
  if (reqp->complete()) return false;
  const bool removed = st.bundle->cancel_recv(reqp);
  if (!removed) return false;  // matched concurrently; caller must wait()
  // Retire the request object.
  for (auto it = st.recv_requests.begin(); it != st.recv_requests.end(); ++it) {
    if (it->get() == reqp) {
      st.recv_requests.erase(it);
      break;
    }
  }
  request.req_ = nullptr;
  return true;
}

// --------------------------------------------------------------------
// Comm — collectives (binomial trees over point-to-point)
// --------------------------------------------------------------------

void Comm::barrier() {
  // Dissemination barrier: log2(size) rounds.
  const int n = size();
  std::byte token{0};
  int round = 0;
  for (int k = 1; k < n; k <<= 1, ++round) {
    const int to = (rank_ + k) % n;
    const int from = (rank_ - k % n + n) % n;
    send_ctx(to, kBarrierTagBase + round, std::span<const std::byte>(&token, 1),
             ctx_coll_);
    std::byte sink{0};
    recv_ctx(from, kBarrierTagBase + round, std::span<std::byte>(&sink, 1),
             ctx_coll_);
  }
}

void Comm::bcast(int root, std::span<std::byte> data) {
  const int n = size();
  SEMPERM_ASSERT(root >= 0 && root < n);
  const int vr = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int from = ((vr - mask) + root) % n;
      recv_ctx(from, kBcastTag, data, ctx_coll_);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int to = ((vr + mask) + root) % n;
      send_ctx(to, kBcastTag, data, ctx_coll_);
    }
    mask >>= 1;
  }
}

double Comm::reduce_sum(int root, double value) {
  const int n = size();
  SEMPERM_ASSERT(root >= 0 && root < n);
  const int vr = (rank_ - root + n) % n;
  double acc = value;
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int to = ((vr - mask) + root) % n;
      send_ctx(to, kReduceTag,
               std::as_bytes(std::span<const double>(&acc, 1)), ctx_coll_);
      break;
    }
    if (vr + mask < n) {
      const int from = ((vr + mask) + root) % n;
      double incoming = 0.0;
      recv_ctx(from, kReduceTag,
               std::as_writable_bytes(std::span<double>(&incoming, 1)),
               ctx_coll_);
      acc += incoming;
    }
    mask <<= 1;
  }
  return acc;  // meaningful at root only (MPI semantics)
}

double Comm::allreduce_sum(double value) {
  double total = reduce_sum(0, value);
  bcast(0, std::as_writable_bytes(std::span<double>(&total, 1)));
  return total;
}

// GCC 12 at -O3 cannot see that the asserted size relation bounds
// chunk.size() and reports the inlined copies below as a potential
// SIZE_MAX-byte memcpy (false positive, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Wrestrict"

void Comm::gather(int root, std::span<const std::byte> chunk,
                  std::span<std::byte> out) {
  const int n = size();
  SEMPERM_ASSERT(root >= 0 && root < n);
  if (rank_ != root) {
    send_ctx(root, kGatherTag, chunk, ctx_coll_);
    return;
  }
  SEMPERM_ASSERT_MSG(out.size() >= chunk.size() * static_cast<std::size_t>(n),
                     "gather output buffer too small");
  for (int r = 0; r < n; ++r) {
    auto slot = out.subspan(static_cast<std::size_t>(r) * chunk.size(),
                            chunk.size());
    if (r == root) {
      // memcpy, not std::copy: GCC 12 at -O3 can't prove the spans' sizes
      // match and flags the inlined copy with a bogus stringop-overflow.
      if (!chunk.empty())
        std::memcpy(slot.data(), chunk.data(), chunk.size());
    } else {
      recv_ctx(r, kGatherTag, slot, ctx_coll_);
    }
  }
}

void Comm::scatter(int root, std::span<const std::byte> in,
                   std::span<std::byte> chunk) {
  const int n = size();
  SEMPERM_ASSERT(root >= 0 && root < n);
  if (rank_ == root) {
    SEMPERM_ASSERT_MSG(in.size() >= chunk.size() * static_cast<std::size_t>(n),
                       "scatter input buffer too small");
    for (int r = 0; r < n; ++r) {
      auto piece = in.subspan(static_cast<std::size_t>(r) * chunk.size(),
                              chunk.size());
      if (r == root) {
        if (!piece.empty())
          std::memcpy(chunk.data(), piece.data(), piece.size());
      } else {
        send_ctx(r, kScatterTag, piece, ctx_coll_);
      }
    }
  } else {
    recv_ctx(root, kScatterTag, chunk, ctx_coll_);
  }
}

#pragma GCC diagnostic pop

void Comm::alltoall(std::span<const std::byte> in, std::span<std::byte> out) {
  const int n = size();
  SEMPERM_ASSERT(n > 0);
  SEMPERM_ASSERT_MSG(in.size() == out.size() && in.size() % n == 0,
                     "alltoall buffers must be size x chunk bytes");
  const std::size_t chunk = in.size() / static_cast<std::size_t>(n);
  // Pairwise exchange: in round k, talk to rank ^ ... (linear shift keeps
  // it simple and deadlock-free with eager/pre-posted receives).
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (r == rank_) continue;
    reqs.push_back(irecv_ctx(
        r, kAlltoallTag, out.subspan(static_cast<std::size_t>(r) * chunk, chunk),
        ctx_coll_));
  }
  for (int shift = 1; shift < n; ++shift) {
    const int dest = (rank_ + shift) % n;
    send_ctx(dest, kAlltoallTag,
             in.subspan(static_cast<std::size_t>(dest) * chunk, chunk),
             ctx_coll_);
  }
  auto self_in = in.subspan(static_cast<std::size_t>(rank_) * chunk, chunk);
  auto self_out = out.subspan(static_cast<std::size_t>(rank_) * chunk, chunk);
  std::copy(self_in.begin(), self_in.end(), self_out.begin());
  wait_all(std::span<Request>(reqs));
}

Comm Comm::dup() const {
  // Collective: rank 0 allocates a fresh context pair and broadcasts it.
  std::uint16_t ctx = 0;
  if (rank_ == 0) {
    MutexLock lock(rt_->ctx_mutex_);
    ctx = rt_->next_ctx_;
    rt_->next_ctx_ += 2;
  }
  const int n = size();
  if (n > 1) {
    if (rank_ == 0) {
      for (int r = 1; r < n; ++r)
        const_cast<Comm*>(this)->send_ctx(
            r, kDupTag, std::as_bytes(std::span<const std::uint16_t>(&ctx, 1)),
            ctx_coll_);
    } else {
      const_cast<Comm*>(this)->recv_ctx(
          0, kDupTag,
          std::as_writable_bytes(std::span<std::uint16_t>(&ctx, 1)),
          ctx_coll_);
    }
  }
  return Comm(rt_, rank_, ctx, static_cast<std::uint16_t>(ctx + 1));
}

}  // namespace semperm::simmpi
