#include "chaos/schedule.h"

#include "util/error.h"
#include "util/json.h"

namespace clampi::chaos {

namespace json = util::json;

const char* to_string(Step::Kind k) {
  switch (k) {
    case Step::Kind::kGet: return "get";
    case Step::Kind::kPut: return "put";
    case Step::Kind::kFlushTarget: return "flush";
    case Step::Kind::kFlushAll: return "flush_all";
    case Step::Kind::kInvalidate: return "invalidate";
    case Step::Kind::kCompute: return "compute";
  }
  return "?";
}

namespace {

Step::Kind kind_from(const std::string& s) {
  if (s == "get") return Step::Kind::kGet;
  if (s == "put") return Step::Kind::kPut;
  if (s == "flush") return Step::Kind::kFlushTarget;
  if (s == "flush_all") return Step::Kind::kFlushAll;
  if (s == "invalidate") return Step::Kind::kInvalidate;
  if (s == "compute") return Step::Kind::kCompute;
  CLAMPI_REQUIRE(false, "schedule: unknown step kind '" + s + "'");
  return Step::Kind::kGet;  // unreachable
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kTransparent: return "transparent";
    case Mode::kAlwaysCache: return "always_cache";
    case Mode::kUserDefined: return "user_defined";
  }
  return "?";
}

Mode mode_from(const std::string& s) {
  if (s == "transparent") return Mode::kTransparent;
  if (s == "always_cache") return Mode::kAlwaysCache;
  if (s == "user_defined") return Mode::kUserDefined;
  CLAMPI_REQUIRE(false, "schedule: unknown mode '" + s + "'");
  return Mode::kTransparent;  // unreachable
}

}  // namespace

Config Schedule::config() const {
  Config c;
  c.mode = mode;
  c.index_entries = index_entries;
  c.storage_bytes = storage_bytes;
  c.adaptive = adaptive;
  if (adaptive) {
    // Tight adaptation range around the (deliberately small) starting
    // sizes so the tuner actually resizes within a few hundred gets.
    c.min_index_entries = 16;
    c.max_index_entries = 8192;
    c.min_storage_bytes = 1024;
    c.max_storage_bytes = std::size_t{1} << 20;
    c.adapt_interval = adapt_interval;
  }
  c.max_retries = max_retries;
  c.epoch_retry_budget_us = epoch_retry_budget_us;
  c.health_failure_threshold = health_failure_threshold;
  if (health_failure_threshold > 0) {
    // Short dwell so quarantine -> PROBING -> HEALTHY cycles fit inside a
    // schedule's virtual-time span.
    c.health_quarantine_dwell_us = 2000.0;
  }
  c.degraded_reads = degraded_reads;
  c.degraded_max_staleness_us = degraded_max_staleness_us;
  c.verify_every_n = verify_every_n;
  c.scrub_entries_per_epoch = scrub_entries_per_epoch;
  c.shadow_verify_every_n = shadow_verify_every_n;
  c.breaker_failure_threshold = breaker_failure_threshold;
  c.seed = seed ^ 0xc4a05ca0c4a05ull;
  return c;
}

bool operator==(const Schedule& a, const Schedule& b) {
  return a.seed == b.seed && a.nranks == b.nranks &&
         a.window_bytes == b.window_bytes && a.mode == b.mode &&
         a.index_entries == b.index_entries && a.storage_bytes == b.storage_bytes &&
         a.adaptive == b.adaptive && a.adapt_interval == b.adapt_interval &&
         a.max_retries == b.max_retries &&
         a.epoch_retry_budget_us == b.epoch_retry_budget_us &&
         a.health_failure_threshold == b.health_failure_threshold &&
         a.degraded_reads == b.degraded_reads &&
         a.degraded_max_staleness_us == b.degraded_max_staleness_us &&
         a.verify_every_n == b.verify_every_n &&
         a.scrub_entries_per_epoch == b.scrub_entries_per_epoch &&
         a.shadow_verify_every_n == b.shadow_verify_every_n &&
         a.breaker_failure_threshold == b.breaker_failure_threshold &&
         a.plan == b.plan && a.steps == b.steps;
}

std::string Schedule::to_json() const {
  json::Value root = json::Value::object();
  root.set("seed", json::Value::number(seed));
  root.set("nranks", json::Value::number(nranks));
  root.set("window_bytes", json::Value::number(window_bytes));
  root.set("mode", json::Value::str(mode_name(mode)));
  root.set("index_entries", json::Value::number(index_entries));
  root.set("storage_bytes", json::Value::number(storage_bytes));
  root.set("adaptive", json::Value::boolean(adaptive));
  root.set("adapt_interval", json::Value::number(adapt_interval));
  root.set("max_retries", json::Value::number(max_retries));
  root.set("epoch_retry_budget_us", json::Value::number(epoch_retry_budget_us));
  root.set("health_failure_threshold", json::Value::number(health_failure_threshold));
  root.set("degraded_reads", json::Value::boolean(degraded_reads));
  root.set("degraded_max_staleness_us", json::Value::number(degraded_max_staleness_us));
  root.set("verify_every_n", json::Value::number(verify_every_n));
  root.set("scrub_entries_per_epoch", json::Value::number(scrub_entries_per_epoch));
  root.set("shadow_verify_every_n", json::Value::number(shadow_verify_every_n));
  root.set("breaker_failure_threshold",
           json::Value::number(breaker_failure_threshold));
  root.set("plan", json::Value::parse(plan.to_json()));
  json::Value arr = json::Value::array();
  for (const Step& st : steps) {
    json::Value o = json::Value::object();
    o.set("op", json::Value::str(to_string(st.kind)));
    if (st.target != 0) o.set("t", json::Value::number(st.target));
    if (st.disp != 0) o.set("disp", json::Value::number(st.disp));
    if (st.bytes != 0) o.set("bytes", json::Value::number(st.bytes));
    if (st.us != 0.0) o.set("us", json::Value::number(st.us));
    arr.push(std::move(o));
  }
  root.set("steps", std::move(arr));
  return root.dump(/*indent=*/2);
}

Schedule Schedule::from_json(const std::string& text) {
  const json::Value root = json::Value::parse(text);
  Schedule s;
  s.seed = root.get_u64("seed", s.seed);
  s.nranks = root.get_int("nranks", s.nranks);
  s.window_bytes = root.get_u64("window_bytes", s.window_bytes);
  if (const json::Value* m = root.find("mode")) s.mode = mode_from(m->as_string());
  s.index_entries = root.get_u64("index_entries", s.index_entries);
  s.storage_bytes = root.get_u64("storage_bytes", s.storage_bytes);
  s.adaptive = root.get_bool("adaptive", s.adaptive);
  s.adapt_interval = root.get_u64("adapt_interval", s.adapt_interval);
  s.max_retries = root.get_int("max_retries", s.max_retries);
  s.epoch_retry_budget_us =
      root.get_double("epoch_retry_budget_us", s.epoch_retry_budget_us);
  s.health_failure_threshold =
      root.get_int("health_failure_threshold", s.health_failure_threshold);
  s.degraded_reads = root.get_bool("degraded_reads", s.degraded_reads);
  s.degraded_max_staleness_us =
      root.get_double("degraded_max_staleness_us", s.degraded_max_staleness_us);
  s.verify_every_n = root.get_u64("verify_every_n", s.verify_every_n);
  s.scrub_entries_per_epoch =
      root.get_u64("scrub_entries_per_epoch", s.scrub_entries_per_epoch);
  s.shadow_verify_every_n =
      root.get_u64("shadow_verify_every_n", s.shadow_verify_every_n);
  s.breaker_failure_threshold =
      root.get_int("breaker_failure_threshold", s.breaker_failure_threshold);
  if (const json::Value* p = root.find("plan")) {
    s.plan = fault::Plan::from_json(p->dump());
  }
  if (const json::Value* arr = root.find("steps")) {
    for (const json::Value& o : arr->items()) {
      Step st;
      if (const json::Value* op = o.find("op")) st.kind = kind_from(op->as_string());
      st.target = o.get_int("t", 0);
      st.disp = o.get_u64("disp", 0);
      st.bytes = o.get_u64("bytes", 0);
      st.us = o.get_double("us", 0.0);
      s.steps.push_back(st);
    }
  }
  return s;
}

}  // namespace clampi::chaos
