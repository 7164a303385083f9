#include "chaos/runner.h"

#include <cstdio>
#include <deque>
#include <exception>
#include <memory>

#include "chaos/oracle.h"
#include "clampi/window.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"

namespace clampi::chaos {

namespace {

/// State shared between the driver rank, the engine's op observer and the
/// outer run() frame. Observers run on rank threads, but installing an
/// op observer keeps the scheduler on one baton, so access is serialized.
struct Shared {
  const Schedule* s = nullptr;
  const Options* opt = nullptr;
  Oracle* oracle = nullptr;
  Outcome* out = nullptr;
  std::uint64_t step_net_gets = 0;  ///< network gets since the step started
};

void drive(rmasim::Process& p, CachedWindow& win, Shared& sh) {
  const Schedule& s = *sh.s;
  Oracle& oracle = *sh.oracle;
  Outcome& out = *sh.out;
  const bool transparent = s.mode == Mode::kTransparent;

  CachedWindow::GetObservation obs;
  bool have_obs = false;
  win.observe_gets([&obs, &have_obs](const CachedWindow::GetObservation& o) {
    obs = o;
    have_obs = true;
  });

  // Get buffers live until the end of the run: pending copy-outs write
  // into them at flush time and the oracle's deferred checks read them
  // then. A deque never relocates elements, so the pointers stay stable.
  std::deque<std::vector<std::uint8_t>> buffers;
  std::vector<std::uint8_t> putbuf;

  // Crash boundaries (docs/DURABILITY.md): once a crashed server's restart
  // time has passed, the engine wipes its window lazily at the next op that
  // touches it. The driver mirrors that at step granularity — before the op
  // it completes in-flight work (the lazy wipe lands inside the flush; the
  // eagerly-copied data predates the crash, matching the deferred checks'
  // issue-time snapshots), drops the cache (its entries predate the wipe),
  // and only then zeroes the oracle's shadow. The generator clears every
  // fault that could fail this flush (generator.cc), so the catch arms are
  // belt-and-braces.
  std::vector<int> wipes_seen(static_cast<std::size_t>(s.nranks), 0);
  const bool any_crash = !s.plan.crashes.empty();

  for (std::size_t i = 0; i < s.steps.size() && !oracle.gave_up(); ++i) {
    const Step& st = s.steps[i];
    oracle.begin_step(i);
    ++out.steps_run;
    if (any_crash) {
      for (int r = 1; r < s.nranks; ++r) {
        const int due = p.crash_restarts_due(r);
        if (due <= wipes_seen[static_cast<std::size_t>(r)]) continue;
        wipes_seen[static_cast<std::size_t>(r)] = due;
        try {
          win.flush_all();
          oracle.on_flush_success(-1);
        } catch (const fault::OpFailedError&) {
          ++out.faults;
          oracle.on_flush_failure(-1);
        }
        if (s.mode == Mode::kUserDefined) {
          // Transparent mode already invalidated at the epoch closure
          // above; user-defined epochs survive a flush_all and must be
          // closed explicitly. (kAlwaysCache never crashes: generator.cc.)
          try {
            win.invalidate();
            oracle.on_flush_success(-1);
          } catch (const fault::OpFailedError&) {
            ++out.faults;
            oracle.on_flush_failure(-1);
          }
        }
        oracle.on_crash_wipe(r, p.now_us());
      }
    }
    switch (st.kind) {
      case Step::Kind::kGet: {
        buffers.emplace_back(st.bytes);
        auto& buf = buffers.back();
        have_obs = false;
        sh.step_net_gets = 0;
        ++out.gets;
        try {
          win.get(buf.data(), st.bytes, st.target, st.disp);
        } catch (const fault::OpFailedError&) {
          ++out.faults;
          break;
        }
        if (!have_obs) {
          oracle.fail("get completed without delivering a GetObservation");
          break;
        }
        if (sh.opt->plant_bug && obs.type == AccessType::kHit && !obs.degraded) {
          buf[0] ^= 0x40;  // the planted semantics bug (mutation testing)
        }
        if (obs.degraded) {
          ++out.degraded_serves;
        } else if (obs.type == AccessType::kHit) {
          ++out.full_hits;
        }
        // The paper's core promise: a cache-served get touches the
        // network zero times. Healing re-fetches by design, and
        // shadow-verify samples full hits, so those runs are exempt.
        const bool cache_served =
            obs.degraded || (obs.type == AccessType::kHit && !obs.healed);
        if (cache_served && s.shadow_verify_every_n == 0 &&
            sh.step_net_gets != 0) {
          char msg[128];
          std::snprintf(msg, sizeof msg,
                        "step %zu: cache-served get (t=%d disp=%llu) issued %llu "
                        "network get(s)",
                        i, st.target, static_cast<unsigned long long>(st.disp),
                        static_cast<unsigned long long>(sh.step_net_gets));
          oracle.fail(msg);
        }
        oracle.on_get(obs, buf.data(), p.now_us());
        break;
      }
      case Step::Kind::kPut: {
        if (putbuf.size() < st.bytes) putbuf.resize(st.bytes);
        // Payload is a pure function of (step index, address), so a
        // replayed schedule writes the identical bytes.
        for (std::uint64_t j = 0; j < st.bytes; ++j) {
          putbuf[j] = static_cast<std::uint8_t>((st.disp + j) * 31 +
                                                (i + 1) * 17 + 5);
        }
        ++out.puts;
        try {
          win.put(putbuf.data(), st.bytes, st.target, st.disp);
        } catch (const fault::OpFailedError&) {
          ++out.faults;
          break;
        }
        oracle.on_put(st.target, st.disp, putbuf.data(), st.bytes, p.now_us());
        break;
      }
      case Step::Kind::kFlushTarget: {
        ++out.flushes;
        // In transparent mode a per-target flush completes every target
        // (window.h); the oracle must resolve its deferred checks the
        // same way.
        const int scope = transparent ? -1 : st.target;
        try {
          win.flush(st.target);
          oracle.on_flush_success(scope);
        } catch (const fault::OpFailedError&) {
          ++out.faults;
          oracle.on_flush_failure(scope);
        }
        break;
      }
      case Step::Kind::kFlushAll: {
        ++out.flushes;
        try {
          win.flush_all();
          oracle.on_flush_success(-1);
        } catch (const fault::OpFailedError&) {
          ++out.faults;
          oracle.on_flush_failure(-1);
        }
        break;
      }
      case Step::Kind::kInvalidate: {
        if (s.mode != Mode::kUserDefined) break;  // generator never emits this
        try {
          win.invalidate();
          oracle.on_flush_success(-1);
        } catch (const fault::OpFailedError&) {
          ++out.faults;
          oracle.on_flush_failure(-1);
        }
        break;
      }
      case Step::Kind::kCompute:
        p.compute_us(st.us);
        break;
    }
    oracle.check_stats(win.stats());
    oracle.check_audit(win.core());
  }

  // Wind down: complete (or abandon) whatever is still in flight so the
  // collective teardown below runs on every rank.
  try {
    win.flush_all();
    oracle.on_flush_success(-1);
  } catch (const fault::OpFailedError&) {
    ++out.faults;
    oracle.on_flush_failure(-1);
  }
  win.observe_gets({});
  out.stats = win.stats();
}

}  // namespace

Outcome run(const Schedule& s, const Options& opt) {
  Outcome out;
  Oracle oracle(s);
  Shared sh;
  sh.s = &s;
  sh.opt = &opt;
  sh.oracle = &oracle;
  sh.out = &out;

  rmasim::Engine::Config ecfg;
  ecfg.nranks = s.nranks;
  ecfg.model = net::make_aries_model(/*ranks_per_node=*/1);
  ecfg.time_policy = rmasim::TimePolicy::kModeled;
  if (!s.plan.trivial()) ecfg.injector = std::make_shared<fault::Injector>(s.plan);
  ecfg.op_observer = [&sh](const fault::OpDesc& d, bool failed) {
    ++sh.out->net_ops;
    if (d.origin == 0 && !failed && d.kind == fault::OpKind::kGet) ++sh.step_net_gets;
  };

  rmasim::Engine engine(ecfg);
  try {
    engine.run([&](rmasim::Process& p) {
      void* base = nullptr;
      CachedWindow win = CachedWindow::allocate(
          p, static_cast<std::size_t>(s.window_bytes), &base, s.config());
      auto* bytes = static_cast<std::uint8_t*>(base);
      for (std::uint64_t i = 0; i < s.window_bytes; ++i) {
        bytes[i] = initial_byte(p.rank(), i);
      }
      p.barrier();  // every window is filled before the program starts
      if (p.rank() == 0) {
        win.lock_all();
        drive(p, win, sh);
        win.unlock_all();
      }
      p.barrier();  // servers stay alive until the driver is done
      win.free_window();
    });
    out.completed = true;
  } catch (const std::exception& e) {
    oracle.fail(std::string("escaped exception aborted the run: ") + e.what());
  }

  out.oracle_ok = oracle.ok();
  out.violations = oracle.violations();
  return out;
}

}  // namespace clampi::chaos
