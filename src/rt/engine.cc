#include "rt/engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/align.h"

namespace clampi::rmasim {

// ---------------------------------------------------------------------------
// PendingCompletions
// ---------------------------------------------------------------------------

void Engine::PendingCompletions::ensure(std::size_t win_id, int nranks) {
  if (per_window_target.size() <= win_id) per_window_target.resize(win_id + 1);
  if (per_window_target[win_id].empty()) {
    per_window_target[win_id].assign(static_cast<std::size_t>(nranks), 0.0);
  }
}

void Engine::PendingCompletions::note(std::size_t win_id, int target, double t, int nranks) {
  ensure(win_id, nranks);
  auto& v = per_window_target[win_id][static_cast<std::size_t>(target)];
  v = std::max(v, t);
}

double Engine::PendingCompletions::take_target(std::size_t win_id, int target) {
  if (per_window_target.size() <= win_id || per_window_target[win_id].empty()) return 0.0;
  auto& v = per_window_target[win_id][static_cast<std::size_t>(target)];
  const double r = v;
  v = 0.0;
  return r;
}

double Engine::PendingCompletions::peek_target(std::size_t win_id, int target) const {
  if (per_window_target.size() <= win_id || per_window_target[win_id].empty()) return 0.0;
  return per_window_target[win_id][static_cast<std::size_t>(target)];
}

double Engine::PendingCompletions::take_all(std::size_t win_id) {
  if (per_window_target.size() <= win_id) return 0.0;
  double r = 0.0;
  for (auto& v : per_window_target[win_id]) {
    r = std::max(r, v);
    v = 0.0;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

int usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Engine::Engine(Config cfg) : cfg_(std::move(cfg)) {
  CLAMPI_REQUIRE(cfg_.nranks >= 1, "engine needs at least one rank");
  CLAMPI_REQUIRE(cfg_.model != nullptr, "engine needs a network model");
  if (cfg_.injector) cfg_.injector->prepare(cfg_.nranks);
  // Faults, NIC queues and the observer's op stream all depend on how
  // ranks interleave, so each of them keeps the single baton.
  if (!cfg_.injector && !cfg_.serialize_injection && !cfg_.op_observer) {
    max_batons_ = std::min(cfg_.nranks, usable_cpus());
  }
  ranks_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    ranks_.push_back(std::make_unique<RankCtx>(cfg_.time_policy));
    ranks_.back()->rank = r;
  }
  nic_free_us_.assign(static_cast<std::size_t>(cfg_.nranks), 0.0);
  crash_wipes_.assign(static_cast<std::size_t>(cfg_.nranks), 0);
  crash_recovering_.assign(static_cast<std::size_t>(cfg_.nranks), 0);
  crash_owner_.assign(static_cast<std::size_t>(cfg_.nranks), 0);
  coll_.src.resize(static_cast<std::size_t>(cfg_.nranks));
  coll_.dst.resize(static_cast<std::size_t>(cfg_.nranks));
  wincreate_.resize(static_cast<std::size_t>(cfg_.nranks));
}

Engine::~Engine() {
  for (auto& w : windows_) {
    if (w == nullptr) continue;
    for (std::size_t r = 0; r < w->base.size(); ++r) {
      if (w->owned[r] && w->base[r] != nullptr) std::free(w->base[r]);
      w->base[r] = nullptr;
    }
  }
}

void Engine::run(const std::function<void(Process&)>& rank_main) {
  CLAMPI_REQUIRE(!started_, "Engine::run is single-shot");
  started_ = true;
  for (auto& rc : ranks_) {
    RankCtx* ctx = rc.get();
    ctx->thread = std::thread([this, ctx, &rank_main] { thread_main(ctx->rank, rank_main); });
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    schedule_next(lk);  // no window yet: one baton, to rank 0 (all clocks are zero)
    all_done_cv_.wait(lk, [&] { return done_count_ == cfg_.nranks; });
  }
  for (auto& rc : ranks_) rc->thread.join();
  if (first_error_) std::rethrow_exception(first_error_);
}

double Engine::final_time_us(int rank) const {
  CLAMPI_REQUIRE(rank >= 0 && rank < cfg_.nranks, "rank out of range");
  return ranks_[static_cast<std::size_t>(rank)]->final_time_us;
}

double Engine::max_final_time_us() const {
  double m = 0.0;
  for (auto& rc : ranks_) m = std::max(m, rc->final_time_us);
  return m;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

void Engine::thread_main(int rank, const std::function<void(Process&)>& rank_main) {
  RankCtx& me = *ranks_[static_cast<std::size_t>(rank)];
  {
    std::unique_lock<std::mutex> lk(mu_);
    me.cv.wait(lk, [&] { return me.state == RunState::kRunning || aborted_; });
  }
  bool clean_entry = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    clean_entry = !aborted_ && me.state == RunState::kRunning;
  }
  if (clean_entry) {
    me.clock.start_measurement();
    try {
      Process p(this, rank);
      rank_main(p);
    } catch (const AbortError&) {
      // unwound because another rank failed; nothing to record
    } catch (...) {
      std::unique_lock<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      aborted_ = true;
      for (auto& rc : ranks_) {
        if (rc->rank != rank && rc->state != RunState::kDone) rc->cv.notify_all();
      }
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  me.state = RunState::kDone;
  me.final_time_us = me.clock.now_us();
  ++done_count_;
  if (done_count_ == cfg_.nranks) {
    all_done_cv_.notify_all();
  } else {
    schedule_next(lk);
  }
}

void Engine::schedule_next(std::unique_lock<std::mutex>&) {
  if (aborted_) {
    for (auto& rc : ranks_) {
      if (rc->state != RunState::kDone) rc->cv.notify_all();
    }
    return;
  }
  int running = 0;
  for (auto& rc : ranks_) running += rc->state == RunState::kRunning ? 1 : 0;
  for (; running < batons_; ++running) {
    // A ready rank is parked, so reading its clock here does not race.
    RankCtx* best = nullptr;
    for (auto& rc : ranks_) {
      if (rc->state != RunState::kReady) continue;
      if (best == nullptr || rc->clock.now_us() < best->clock.now_us()) best = rc.get();
    }
    if (best == nullptr) break;
    best->state = RunState::kRunning;
    best->cv.notify_all();
  }
  if (running > 0 || done_count_ == cfg_.nranks) return;
  bool any_blocked = false;
  for (auto& rc : ranks_) any_blocked |= rc->state == RunState::kBlocked;
  if (any_blocked) {
    // Nothing runs and a live rank is blocked: the simulated program
    // deadlocked (e.g. a rank exited while others wait in a barrier, or
    // mismatched locks).
    if (!first_error_) {
      first_error_ = std::make_exception_ptr(
          util::ContractError("rmasim: deadlock — all live ranks are blocked"));
    }
    aborted_ = true;
    for (auto& rc : ranks_) {
      if (rc->state != RunState::kDone) rc->cv.notify_all();
    }
  }
}

void Engine::switch_out(std::unique_lock<std::mutex>& lk, RankCtx& me, RunState state) {
  me.state = state;
  schedule_next(lk);
  me.cv.wait(lk, [&] { return me.state == RunState::kRunning || aborted_; });
  check_abort(me);
}

void Engine::check_abort(RankCtx& me) {
  if (aborted_ && me.state != RunState::kRunning) throw AbortError{};
}

void Engine::update_batons() {
  // Ranks may overlap only while nothing they do can reach another rank:
  // every live window is read-only.
  bool any_live = false;
  bool all_read_only = true;
  for (const auto& w : windows_) {
    if (!w->alive) continue;
    any_live = true;
    all_read_only = all_read_only && w->read_only;
  }
  batons_ = any_live && all_read_only ? max_batons_ : 1;
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

void Engine::collective(RankCtx& me, int kind, const void* src, void* dst,
                        const std::function<void(CollectiveCtx&)>& complete,
                        const std::function<double()>& cost_us) {
  std::unique_lock<std::mutex> lk(mu_);
  check_abort(me);
  CollectiveCtx& c = coll_;
  if (c.arrived == 0) {
    c.kind = kind;
    c.max_arrival_us = 0.0;
    c.waiters.clear();
  } else {
    CLAMPI_REQUIRE(c.kind == kind, "ranks entered mismatched collectives");
  }
  const auto r = static_cast<std::size_t>(me.rank);
  c.src[r] = src;
  c.dst[r] = dst;
  c.max_arrival_us = std::max(c.max_arrival_us, me.clock.now_us());
  if (++c.arrived < cfg_.nranks) {
    c.waiters.push_back(me.rank);
    switch_out(lk, me, RunState::kBlocked);
    // Released: the releaser already advanced our clock.
    return;
  }
  // Last arriver: perform the data movement and release everyone. The
  // released waiters take any free batons at once; with a single baton
  // they stay ready until this rank switches out.
  complete(c);
  const double release = c.max_arrival_us + cost_us();
  for (int w : c.waiters) {
    RankCtx& rc = *ranks_[static_cast<std::size_t>(w)];
    rc.clock.advance_to_us(release);
    rc.state = RunState::kReady;
  }
  c.waiters.clear();
  c.arrived = 0;
  me.clock.advance_to_us(release);
  schedule_next(lk);
}

namespace {
// Cost of a recursive-doubling collective moving `bytes` per stage pair.
double doubling_cost_us(const net::Model& m, int nranks, std::size_t bytes) {
  if (nranks <= 1) return 0.0;
  double cost = 0.0;
  for (int span = 1; span < nranks; span <<= 1) {
    cost += m.transfer_us(0, std::min(span, nranks - 1), bytes);
  }
  return cost;
}
}  // namespace

void Process::barrier() {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  engine_->collective(
      me, /*kind=*/1, nullptr, nullptr, [](Engine::CollectiveCtx&) {},
      [this] { return engine_->model().barrier_us(engine_->nranks()); });
  me.clock.exit_runtime();
}

void Process::allreduce_f64(const double* src, double* dst, std::size_t n_elems,
                            ReduceOp op) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  engine_->collective(
      me, /*kind=*/4, src, dst,
      [n_elems, op](Engine::CollectiveCtx& c) {
        std::vector<double> acc(n_elems);
        for (std::size_t i = 0; i < n_elems; ++i) {
          double v = static_cast<const double*>(c.src[0])[i];
          for (std::size_t s = 1; s < c.src.size(); ++s) {
            const double x = static_cast<const double*>(c.src[s])[i];
            switch (op) {
              case ReduceOp::kSum: v += x; break;
              case ReduceOp::kMax: v = std::max(v, x); break;
              case ReduceOp::kMin: v = std::min(v, x); break;
            }
          }
          acc[i] = v;
        }
        for (void* out : c.dst) {
          if (out != nullptr) std::copy(acc.begin(), acc.end(), static_cast<double*>(out));
        }
      },
      [this, n_elems] {
        return 2.0 * doubling_cost_us(engine_->model(), engine_->nranks(),
                                      n_elems * sizeof(double));
      });
  me.clock.exit_runtime();
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

Engine::WindowObj& Engine::window(Window w) {
  CLAMPI_REQUIRE(w.valid() && static_cast<std::size_t>(w.id) < windows_.size(),
                 "invalid window handle");
  WindowObj& wo = *windows_[static_cast<std::size_t>(w.id)];
  CLAMPI_REQUIRE(wo.alive, "window has been freed");
  return wo;
}

const Engine::WindowObj& Engine::window(Window w) const {
  return const_cast<Engine*>(this)->window(w);
}

void Engine::validate_target(const WindowObj& wo, int target, std::size_t disp,
                             std::size_t bytes) const {
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.base.size(),
                 "target rank out of range");
  const std::size_t wsize = wo.size[static_cast<std::size_t>(target)];
  CLAMPI_REQUIRE(disp <= wsize && bytes <= wsize - disp,
                 "RMA access outside the target window");
}

Window Engine::win_register(int rank, void* base, std::size_t bytes, bool owned,
                            bool read_only) {
  RankCtx& me = ctx(rank);
  const auto r = static_cast<std::size_t>(rank);
  {
    std::unique_lock<std::mutex> lk(mu_);
    check_abort(me);
  }
  wincreate_[r] = {base, bytes, owned, read_only, Window{}};
  collective(
      me, /*kind=*/6, nullptr, nullptr,
      [this](CollectiveCtx&) {
        auto wo = std::make_unique<WindowObj>();
        wo->alive = true;
        wo->read_only = wincreate_[0].read_only;
        const auto n = static_cast<std::size_t>(cfg_.nranks);
        wo->base.resize(n);
        wo->size.resize(n);
        wo->owned.resize(n);
        wo->locks.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          const WinStaging& st = wincreate_[i];
          CLAMPI_REQUIRE(st.read_only == wo->read_only,
                         "win_create: every rank must pass const memory, or none");
          wo->base[i] = static_cast<std::byte*>(st.base);
          wo->size[i] = st.bytes;
          wo->owned[i] = st.owned;
        }
        windows_.push_back(std::move(wo));
        update_batons();
        const Window handle{static_cast<int>(windows_.size()) - 1};
        for (WinStaging& st : wincreate_) st.result = handle;
      },
      [this] { return cfg_.model->barrier_us(cfg_.nranks); });
  // Safe without re-locking: this rank's slot cannot change until it has
  // entered another window-creation collective.
  return wincreate_[r].result;
}

Window Process::win_allocate(std::size_t bytes, void** base) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  void* buf = nullptr;
  if (bytes > 0) {
    const std::size_t rounded = util::round_up(bytes, util::kCacheLineBytes);
    buf = std::aligned_alloc(util::kCacheLineBytes, rounded);
    CLAMPI_ASSERT(buf != nullptr, "window allocation failed");
    std::memset(buf, 0, rounded);
  }
  const Window w =
      engine_->win_register(rank_, buf, bytes, /*owned=*/true, /*read_only=*/false);
  if (base != nullptr) *base = buf;
  me.clock.exit_runtime();
  return w;
}

Window Process::win_create(void* base, std::size_t bytes) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  CLAMPI_REQUIRE(bytes == 0 || base != nullptr, "win_create with null memory");
  const Window w =
      engine_->win_register(rank_, base, bytes, /*owned=*/false, /*read_only=*/false);
  me.clock.exit_runtime();
  return w;
}

Window Process::win_create(const void* base, std::size_t bytes) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  CLAMPI_REQUIRE(bytes == 0 || base != nullptr, "win_create with null memory");
  // The read_only flag keeps every write path away from this memory.
  const Window w = engine_->win_register(rank_, const_cast<void*>(base), bytes,
                                         /*owned=*/false, /*read_only=*/true);
  me.clock.exit_runtime();
  return w;
}

void Process::win_free(Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  engine_->window(w);  // validates
  engine_->collective(
      me, /*kind=*/7, nullptr, nullptr,
      [this, w](Engine::CollectiveCtx&) {
        Engine::WindowObj& wo = *engine_->windows_[static_cast<std::size_t>(w.id)];
        for (std::size_t r = 0; r < wo.base.size(); ++r) {
          if (wo.owned[r] && wo.base[r] != nullptr) std::free(wo.base[r]);
          wo.base[r] = nullptr;
        }
        wo.alive = false;
        engine_->update_batons();
      },
      [this] { return engine_->model().barrier_us(engine_->nranks()); });
  me.clock.exit_runtime();
}

std::size_t Process::win_size(Window w, int target) const {
  const auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.size.size(),
                 "target rank out of range");
  return wo.size[static_cast<std::size_t>(target)];
}

std::byte* Process::win_raw(Window w, int target) const {
  const auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.base.size(),
                 "target rank out of range");
  return wo.base[static_cast<std::size_t>(target)];
}

// ---------------------------------------------------------------------------
// Crash-restart support (docs/FAULTS.md §9, docs/DURABILITY.md)
// ---------------------------------------------------------------------------

void Engine::apply_crash_wipe(int wt) {
  // The crash destroyed the rank's volatile state: its exposed window
  // memory restarts zeroed, and the completions of ops it issued itself
  // will never be confirmed (in-flight ops die with the rank).
  for (auto& w : windows_) {
    // Read-only memory is immutable (the const data the window exposes).
    if (w == nullptr || !w->alive || w->read_only) continue;
    auto* base = w->base[static_cast<std::size_t>(wt)];
    const std::size_t sz = w->size[static_cast<std::size_t>(wt)];
    if (base != nullptr && sz > 0) std::memset(base, 0, sz);
  }
  for (auto& per_target : ctx(wt).pending.per_window_target) {
    std::fill(per_target.begin(), per_target.end(), 0.0);
  }
}

bool Engine::crash_gate(int wt, double now_us) {
  const fault::Injector* inj = cfg_.injector.get();
  if (inj == nullptr || inj->plan().crashes.empty()) return false;
  if (crash_recovering_[static_cast<std::size_t>(wt)] != 0) return true;
  const int due = inj->restarts_due(wt, now_us);
  if (due <= crash_wipes_[static_cast<std::size_t>(wt)]) return false;
  // A rank that declared explicit recovery handles its own wipe inside
  // begin_crash_recovery(); until then its memory is in an undefined
  // "just rebooted" state, so ops against it fast-fail.
  if (crash_owner_[static_cast<std::size_t>(wt)] != 0) return true;
  // Otherwise the wipe is applied lazily, by the first op that would
  // observe the restarted rank's memory.
  apply_crash_wipe(wt);
  crash_wipes_[static_cast<std::size_t>(wt)] = due;
  return false;
}

void Process::declare_crash_recovery() {
  engine_->crash_owner_[static_cast<std::size_t>(rank_)] = 1;
}

int Process::crash_restarts_due(int world_rank) const {
  const fault::Injector* inj = engine_->cfg_.injector.get();
  if (inj == nullptr) return 0;
  return inj->restarts_due(world_rank, engine_->ctx(rank_).clock.now_us());
}

int Process::crash_wipes_applied(int world_rank) const {
  CLAMPI_REQUIRE(world_rank >= 0 && world_rank < engine_->nranks(), "rank out of range");
  return engine_->crash_wipes_[static_cast<std::size_t>(world_rank)];
}

bool Process::crash_recovering(int world_rank) const {
  CLAMPI_REQUIRE(world_rank >= 0 && world_rank < engine_->nranks(), "rank out of range");
  const auto r = static_cast<std::size_t>(world_rank);
  if (engine_->crash_recovering_[r] != 0) return true;
  if (engine_->crash_owner_[r] == 0) return false;
  const fault::Injector* inj = engine_->cfg_.injector.get();
  if (inj == nullptr) return false;
  return inj->restarts_due(world_rank, engine_->ctx(rank_).clock.now_us()) >
         engine_->crash_wipes_[r];
}

int Process::begin_crash_recovery() {
  const auto r = static_cast<std::size_t>(rank_);
  const int due = crash_restarts_due(rank_);
  if (due > engine_->crash_wipes_[r]) {
    engine_->apply_crash_wipe(rank_);
    engine_->crash_wipes_[r] = due;
  }
  engine_->crash_recovering_[r] = 1;
  return due;
}

void Process::end_crash_recovery() {
  engine_->crash_recovering_[static_cast<std::size_t>(rank_)] = 0;
}

// ---------------------------------------------------------------------------
// One-sided operations
// ---------------------------------------------------------------------------

fault::Injector::Verdict Engine::admit(int origin, fault::OpKind kind, int target,
                                       std::size_t disp, std::size_t bytes) {
  auto& clock = ctx(origin).clock;
  fault::Injector::Verdict fv;
  if (fault::Injector* inj = cfg_.injector.get()) {
    const bool recovering = crash_gate(target, clock.now_us());
    if (!recovering) fv = inj->on_op(kind, origin, target, bytes, clock.now_us());
    if (recovering || fv.fail) {
      // A refused op moves no data and leaves nothing pending for flush,
      // but the origin NIC did work before the drop: charge the issue.
      clock.advance_us(model().issue_us(origin, target, bytes));
      fail_op(origin, {kind, origin, target, disp, bytes, clock.now_us()},
              recovering ? fault::FailureKind::kRecovering : fv.kind);
    }
  }
  if (cfg_.op_observer) {
    cfg_.op_observer({kind, origin, target, disp, bytes, clock.now_us()}, /*failed=*/false);
  }
  return fv;
}

void Engine::complete(int origin, Window w, int target, const fault::Injector::Verdict& fv,
                      std::size_t bytes, double xfer_us) {
  auto& clock = ctx(origin).clock;
  const double t0 = clock.now_us();
  clock.advance_us(model().issue_us(origin, target, bytes));
  const double xfer = fault::Injector::perturb(fv, xfer_us);
  double done = t0 + xfer;
  if (cfg_.serialize_injection) {
    // The remote NIC is a unit-capacity server: the transfer waits for it.
    auto& free_at = nic_free_us_[static_cast<std::size_t>(target)];
    free_at = std::max(t0, free_at) + xfer;
    done = free_at;
  }
  ctx(origin).pending.note(static_cast<std::size_t>(w.id), target, done, nranks());
  clock.exit_runtime();
}

void Engine::fail_op(int origin, const fault::OpDesc& d, fault::FailureKind kind) {
  if (cfg_.op_observer) cfg_.op_observer(d, /*failed=*/true);
  ctx(origin).clock.exit_runtime();
  throw fault::OpFailedError(kind, d);
}

std::optional<fault::FailureKind> Engine::unreachable(const fault::Injector& inj,
                                                      int origin, int wt, double now_us) {
  if (inj.dead(wt, now_us)) return fault::FailureKind::kRankDead;
  if (inj.partitioned(origin, wt, now_us)) return fault::FailureKind::kPartitioned;
  // Restarted wiped and mid-recovery: the landing zone of the ops is gone.
  if (crash_gate(wt, now_us)) return fault::FailureKind::kRecovering;
  return std::nullopt;
}

void Process::get(void* origin, std::size_t bytes, int target, std::size_t disp, Window w) {
  engine_->ctx(rank_).clock.enter_runtime();
  auto& wo = engine_->window(w);
  engine_->validate_target(wo, target, disp, bytes);
  const auto fv = engine_->admit(rank_, fault::OpKind::kGet, target, disp, bytes);
  // Data is copied eagerly (legal under the epoch model: the source may not
  // be concurrently modified within the epoch); the completion time is what
  // the network model says, so flush shows the true overlap window.
  std::memcpy(origin, wo.base[static_cast<std::size_t>(target)] + disp, bytes);
  engine_->complete(rank_, w, target, fv, bytes, model().transfer_us(target, rank_, bytes));
}

void Process::put(const void* origin, std::size_t bytes, int target, std::size_t disp,
                  Window w) {
  engine_->ctx(rank_).clock.enter_runtime();
  auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(!wo.read_only, "put on a read-only window");
  engine_->validate_target(wo, target, disp, bytes);
  const auto fv = engine_->admit(rank_, fault::OpKind::kPut, target, disp, bytes);
  std::memcpy(wo.base[static_cast<std::size_t>(target)] + disp, origin, bytes);
  engine_->complete(rank_, w, target, fv, bytes, model().transfer_us(rank_, target, bytes));
}

double Process::pending_completion_us(int target, Window w) const {
  const auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.base.size(),
                 "target rank out of range");
  return engine_->ctx(rank_).pending.peek_target(static_cast<std::size_t>(w.id), target);
}

double Process::discard_pending(int target, Window w) {
  const auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.base.size(),
                 "target rank out of range");
  return engine_->ctx(rank_).pending.take_target(static_cast<std::size_t>(w.id), target);
}

void Process::flush(int target, Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  const auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.base.size(),
                 "target rank out of range");
  const double done = me.pending.take_target(static_cast<std::size_t>(w.id), target);
  if (const fault::Injector* inj = engine_->cfg_.injector.get();
      inj != nullptr && done > 0.0) {
    // The flush cannot confirm completion of the outstanding ops. Pending
    // state is already cleared (taken above), so a subsequent flush of the
    // same target succeeds trivially.
    if (const auto why = engine_->unreachable(*inj, rank_, target, me.clock.now_us())) {
      engine_->fail_op(rank_,
                       {fault::OpKind::kFlush, rank_, target, 0, 0, me.clock.now_us()}, *why);
    }
  }
  me.clock.advance_to_us(done);
  me.clock.exit_runtime();
}

void Process::flush_all(Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  engine_->window(w);  // validates
  auto& pend = me.pending;
  // The lowest unreachable target with pending ops, and why it is
  // unreachable.
  int failed_target = -1;
  std::optional<fault::FailureKind> why;
  if (const fault::Injector* inj = engine_->cfg_.injector.get();
      inj != nullptr && pend.per_window_target.size() > static_cast<std::size_t>(w.id)) {
    const auto& per_target = pend.per_window_target[static_cast<std::size_t>(w.id)];
    for (std::size_t t = 0; t < per_target.size() && !why; ++t) {
      if (per_target[t] <= 0.0) continue;
      failed_target = static_cast<int>(t);
      why = engine_->unreachable(*inj, rank_, failed_target, me.clock.now_us());
    }
  }
  const double done = pend.take_all(static_cast<std::size_t>(w.id));
  if (why) {
    engine_->fail_op(
        rank_, {fault::OpKind::kFlush, rank_, failed_target, 0, 0, me.clock.now_us()}, *why);
  }
  me.clock.advance_to_us(done);
  me.clock.exit_runtime();
}

// ---------------------------------------------------------------------------
// Passive / active target synchronization
// ---------------------------------------------------------------------------

void Process::lock(LockType type, int target, Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  std::unique_lock<std::mutex> lk(engine_->mu_);
  engine_->check_abort(me);
  auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(type == LockType::kShared || !wo.read_only,
                 "exclusive lock on a read-only window");
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.locks.size(),
                 "target rank out of range");
  auto& ls = wo.locks[static_cast<std::size_t>(target)];
  const auto grantable = [&] {
    return type == LockType::kShared
               ? ls.exclusive_holder < 0
               : (ls.exclusive_holder < 0 && ls.shared_holders == 0);
  };
  while (!grantable()) {
    ls.waiters.push_back(rank_);
    engine_->switch_out(lk, me, Engine::RunState::kBlocked);
  }
  if (type == LockType::kShared) {
    ++ls.shared_holders;
  } else {
    ls.exclusive_holder = rank_;
  }
  lk.unlock();
  me.clock.advance_us(engine_->model().issue_us(rank_, target, 0));
  me.clock.exit_runtime();
}

void Process::unlock(int target, Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  auto& wo = engine_->window(w);
  CLAMPI_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < wo.locks.size(),
                 "target rank out of range");
  // Unlock completes all outstanding operations to the target.
  const double done = me.pending.take_target(static_cast<std::size_t>(w.id), target);
  me.clock.advance_to_us(done);
  std::unique_lock<std::mutex> lk(engine_->mu_);
  engine_->check_abort(me);
  auto& ls = wo.locks[static_cast<std::size_t>(target)];
  if (ls.exclusive_holder == rank_) {
    ls.exclusive_holder = -1;
  } else {
    CLAMPI_REQUIRE(ls.shared_holders > 0, "unlock without a matching lock");
    --ls.shared_holders;
  }
  // Wake waiters; they re-check grantability when scheduled.
  for (int r : ls.waiters) {
    auto& rc = engine_->ctx(r);
    rc.clock.advance_to_us(me.clock.now_us());
    rc.state = Engine::RunState::kReady;
  }
  ls.waiters.clear();
  lk.unlock();
  me.clock.exit_runtime();
}

void Process::lock_all(Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  engine_->window(w);  // validates
  // Shared access to every target; contention with exclusive per-target
  // locks is not modelled (none of the paper's workloads mixes them).
  me.clock.advance_us(engine_->model().issue_us(rank_, rank_, 0));
  me.clock.exit_runtime();
}

void Process::unlock_all(Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  const double done = me.pending.take_all(static_cast<std::size_t>(w.id));
  me.clock.advance_to_us(done);
  me.clock.exit_runtime();
}

void Process::fence(Window w) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  const double done = me.pending.take_all(static_cast<std::size_t>(w.id));
  me.clock.advance_to_us(done);
  engine_->window(w);  // validates
  engine_->collective(
      me, /*kind=*/8, nullptr, nullptr, [](Engine::CollectiveCtx&) {},
      [this] { return engine_->model().barrier_us(engine_->nranks()); });
  me.clock.exit_runtime();
}

// ---------------------------------------------------------------------------
// Misc Process methods
// ---------------------------------------------------------------------------

int Process::nranks() const { return engine_->nranks(); }

double Process::now_us() const {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();  // flush measured time into the clock
  const double t = me.clock.now_us();
  me.clock.exit_runtime();
  return t;
}

void Process::compute_us(double us) {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  CLAMPI_REQUIRE(us >= 0.0, "negative compute time");
  me.clock.advance_us(us);
  me.clock.exit_runtime();
}

void Process::charge_local_copy(std::size_t bytes) {
  auto& me = engine_->ctx(rank_);
  if (me.clock.policy() != TimePolicy::kModeled) return;
  me.clock.advance_us(engine_->model().local_copy_us(bytes));
}

void Process::yield() {
  auto& me = engine_->ctx(rank_);
  me.clock.enter_runtime();
  std::unique_lock<std::mutex> lk(engine_->mu_);
  engine_->check_abort(me);
  engine_->switch_out(lk, me, Engine::RunState::kReady);
  lk.unlock();
  me.clock.exit_runtime();
}

const net::Model& Process::model() const { return engine_->model(); }

const fault::Injector* Process::fault_injector() const {
  return engine_->cfg_.injector.get();
}

}  // namespace clampi::rmasim
