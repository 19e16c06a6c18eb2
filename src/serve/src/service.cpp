#include "hmcs/serve/service.hpp"

#include <cstdio>
#include <exception>
#include <thread>

#include "hmcs/obs/metrics.hpp"
#include "hmcs/obs/prometheus.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace hmcs::serve {

namespace {

/// Splices the caller's id into a stored (id-free) body. The body is
/// the cached unit, so cold and warm replies to the same request line
/// are byte-identical including the id.
std::string with_id(const std::string& id_json, const std::string& body) {
  if (id_json.empty()) return body;
  return "{\"id\":" + id_json + "," + body.substr(1);
}

std::string ok_body(const ServeRequest& request,
                    const runner::PointResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("status").value("ok");
  json.key("backend").value(request.backend_kind);
  json.key("key").value(key_hash_hex(request.key_hash));
  json.key("result");
  write_json(json, result);
  json.end_object();
  return std::move(json).str();
}

std::string status_body(const char* status, const std::string& message,
                        const ServeRequest* request) {
  JsonWriter json;
  json.begin_object();
  json.key("status").value(status);
  if (request != nullptr) {
    json.key("backend").value(request->backend_kind);
    json.key("key").value(key_hash_hex(request->key_hash));
  }
  json.key("error").value(message);
  json.end_object();
  return std::move(json).str();
}

/// "r<seq>": the process-unique request tag shared by the reply
/// timing, the access log, and trace span names. (Built with += —
/// gcc 12's -Wrestrict misfires on `"r" + std::to_string(...)`.)
std::string trace_tag(std::uint64_t seq) {
  std::string tag = "r";
  tag += std::to_string(seq);
  return tag;
}

obs::RedWindow::Options red_options(unsigned window_seconds) {
  obs::RedWindow::Options options;
  options.window_seconds = window_seconds == 0 ? 1 : window_seconds;
  return options;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

ServeService::ServeService(const Options& options)
    : options_(options),
      cache_(options.cache),
      chaos_(options.chaos ? options.chaos
                           : std::make_shared<ChaosInjector>()),
      red_(red_options(options.red_window_seconds)),
      started_(std::chrono::steady_clock::now()) {}

std::chrono::steady_clock::time_point ServeService::add_stage(
    RequestTrace& trace, const char* name,
    std::chrono::steady_clock::time_point begin) const {
  const auto now = std::chrono::steady_clock::now();
  if (trace.stage_count < RequestTrace::kMaxStages) {
    RequestTrace::Stage& stage = trace.stages[trace.stage_count++];
    stage.name = name;
    stage.start_ns = elapsed_ns(trace.start, begin);
    stage.duration_ns = elapsed_ns(begin, now);
  }
  return now;
}

std::string ServeService::handle_line(std::string_view line) {
  HMCS_OBS_COUNTER_INC("serve.requests.received");
  HMCS_OBS_TIMER_SCOPE("serve.request.wall_time");
  requests_.fetch_add(1, std::memory_order_relaxed);

  RequestTrace trace;
  trace.start = std::chrono::steady_clock::now();
  trace.seq = sequence_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace) trace.trace_start_us = options_.trace->wall_now_us();

  std::string id_json;
  try {
    const JsonValue doc = parse_json(line);
    if (doc.is_object()) {
      // Pull the id out before full validation so even a rejected
      // request gets a correlatable error reply.
      if (const JsonValue* id = doc.find("id")) {
        JsonWriter json;
        if (id->is_string()) {
          json.value(id->as_string());
          id_json = std::move(json).str();
        } else if (id->is_number()) {
          json.value(id->as_number());
          id_json = std::move(json).str();
        }
      }
      if (const JsonValue* op = doc.find("op")) {
        // Admin ops are not traced or access-logged: a dashboard
        // polling `stats` once a second must not pollute the very
        // latency distribution it reports.
        return handle_op(op->as_string(), doc, id_json);
      }
    }
    const ServeRequest request = parse_request(doc, options_.load);
    add_stage(trace, "parse", trace.start);
    trace.id_json = request.id_json;
    trace.key_hex = key_hash_hex(request.key_hash);
    trace.backend = request.backend_kind;

    const std::string body = handle_request_body(request, trace);
    const std::uint64_t total_ns =
        elapsed_ns(trace.start, std::chrono::steady_clock::now());
    std::string reply = compose_reply(request, trace, body, total_ns);
    finish(trace, total_ns);
    return reply;
  } catch (const hmcs::Error& error) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.bad_request");
    trace.outcome = "error";
    trace.error = true;
    trace.id_json = id_json;
    const std::uint64_t total_ns =
        elapsed_ns(trace.start, std::chrono::steady_clock::now());
    finish(trace, total_ns);
    return with_id(id_json, status_body("error", error.what(), nullptr));
  }
}

std::string ServeService::handle_op(const std::string& op,
                                    const JsonValue& doc,
                                    const std::string& id_json) {
  if (op == "ping") {
    JsonWriter json;
    json.begin_object();
    json.key("status").value("ok");
    json.key("op").value("ping");
    json.end_object();
    return with_id(id_json, std::move(json).str());
  }
  if (op == "stats") return stats_reply(id_json);
  if (op == "metrics") return metrics_reply(id_json);
  if (op == "chaos") {
    // {"op":"chaos"} reports; {"op":"chaos","plan":{...}} installs the
    // plan first (an all-zero plan disables injection).
    if (const JsonValue* plan = doc.find("plan")) {
      chaos_->set_plan(fault_plan_from_json(*plan));
    }
    return chaos_reply(id_json);
  }
  detail::throw_config_error("serve: unknown op '" + op +
                                 "' (expected ping|stats|metrics|chaos)",
                             std::source_location::current());
}

std::string ServeService::chaos_reply(const std::string& id_json) const {
  const ChaosInjector::Counters counters = chaos_->counters();
  JsonWriter json;
  json.begin_object();
  json.key("status").value("ok");
  json.key("op").value("chaos");
  json.key("plan");
  write_json(json, chaos_->plan());
  json.key("counters").begin_object();
  json.key("forced_sheds").value(counters.forced_sheds);
  json.key("eval_delays").value(counters.eval_delays);
  json.key("eval_errors").value(counters.eval_errors);
  json.key("snapshot_failures").value(counters.snapshot_failures);
  json.end_object();
  json.end_object();
  return with_id(id_json, std::move(json).str());
}

std::string ServeService::metrics_reply(const std::string& id_json) const {
  JsonWriter json;
  json.begin_object();
  json.key("status").value("ok");
  json.key("op").value("metrics");
  json.key("content_type").value("text/plain; version=0.0.4");
  json.key("body").value(
      obs::render_prometheus(obs::Registry::global()));
  json.end_object();
  return with_id(id_json, std::move(json).str());
}

std::string ServeService::stats_reply(const std::string& id_json) const {
  const Counters counters = this->counters();
  const ShardedResultCache::Stats cache = cache_.stats();
  const obs::RedWindow::Summary red = red_.summarize();
  const obs::HdrSnapshot latency = latency_.snapshot();
  const auto ns_to_us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };

  JsonWriter json;
  json.begin_object();
  json.key("status").value("ok");
  json.key("op").value("stats");
  json.key("serve").begin_object();
  json.key("requests").value(counters.requests);
  json.key("ok").value(counters.ok);
  json.key("errors").value(counters.errors);
  json.key("timed_out").value(counters.timed_out);
  json.key("bad_requests").value(counters.bad_requests);
  json.key("coalesced").value(counters.coalesced);
  json.key("evaluations").value(counters.evaluations);
  json.key("shed").value(counters.shed);
  json.end_object();
  json.key("cache").begin_object();
  json.key("hits").value(cache.hits);
  json.key("misses").value(cache.misses);
  json.key("insertions").value(cache.insertions);
  json.key("evictions").value(cache.evictions);
  json.key("entries").value(static_cast<std::uint64_t>(cache.entries));
  json.key("shard_entries").begin_array();
  for (const std::size_t entries : cache.shard_entries) {
    json.value(static_cast<std::uint64_t>(entries));
  }
  json.end_array();
  json.end_object();
  json.key("red").begin_object();
  json.key("window_s").value(red.window_s);
  json.key("requests").value(red.requests);
  json.key("errors").value(red.errors);
  json.key("rate_per_s").value(red.rate_per_s);
  json.key("error_rate").value(red.error_rate);
  json.key("p50_us").value(ns_to_us(red.p50_ns));
  json.key("p90_us").value(ns_to_us(red.p90_ns));
  json.key("p99_us").value(ns_to_us(red.p99_ns));
  json.key("p999_us").value(ns_to_us(red.p999_ns));
  json.key("max_us").value(ns_to_us(red.max_ns));
  json.key("dropped").value(red_.dropped());
  json.end_object();
  json.key("latency").begin_object();
  json.key("count").value(latency.total);
  json.key("p50_us").value(ns_to_us(latency.quantile(0.50)));
  json.key("p90_us").value(ns_to_us(latency.quantile(0.90)));
  json.key("p99_us").value(ns_to_us(latency.quantile(0.99)));
  json.key("p999_us").value(ns_to_us(latency.quantile(0.999)));
  json.key("max_us").value(ns_to_us(latency.max_value()));
  json.end_object();
  const PoolStatus pool = pool_status_ ? pool_status_() : PoolStatus{};
  json.key("pool").begin_object();
  json.key("queued").value(static_cast<std::uint64_t>(pool.queued));
  json.key("queue_limit").value(static_cast<std::uint64_t>(pool.queue_limit));
  json.key("threads").value(static_cast<std::uint64_t>(pool.threads));
  json.end_object();
  json.key("inflight_keys")
      .value(static_cast<std::uint64_t>(flights_.in_flight()));
  if (options_.access_log) {
    const AccessLog::Stats log = options_.access_log->stats();
    json.key("access_log").begin_object();
    json.key("appended").value(log.appended);
    json.key("written").value(log.written);
    json.key("shed").value(log.shed);
    json.end_object();
  }
  json.key("uptime_s").value(
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - started_)
          .count());
  json.end_object();
  return with_id(id_json, std::move(json).str());
}

std::string ServeService::handle_request_body(const ServeRequest& request,
                                              RequestTrace& trace) {
  if (chaos_->should_force_shed()) {
    // The chaos shed takes the normal pipeline exit (RED, access log,
    // histogram) rather than the server's queue-refusal fast path, so
    // it is indistinguishable from real overload to the client.
    shed_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.shed");
    trace.outcome = "shed";
    trace.error = true;
    return shed_reply();
  }
  if (request.no_cache) {
    trace.outcome = "miss";
    return evaluate(request, trace).body;
  }
  const auto probe_begin = std::chrono::steady_clock::now();
  auto hit = cache_.get(request.key_hash, request.canonical_key);
  add_stage(trace, "cache_probe", probe_begin);
  if (hit) {
    HMCS_OBS_COUNTER_INC("serve.cache.hits");
    trace.outcome = "hit";
    return *hit;
  }
  HMCS_OBS_COUNTER_INC("serve.cache.misses");

  auto [flight, leader] = flights_.join(request.canonical_key);
  if (!leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.coalesced");
    const auto wait_begin = std::chrono::steady_clock::now();
    std::string body = SingleFlight::wait(flight);
    add_stage(trace, "coalesce_wait", wait_begin);
    trace.outcome = "coalesced";
    return body;
  }

  // The previous leader for this key may have published its body and
  // retired its flight between the probe above and join(): then this
  // request leads a new flight although the cache holds the reply.
  // Look once more before evaluating a second time.
  if (std::optional<std::string> published =
          cache_.peek(request.key_hash, request.canonical_key)) {
    flights_.complete(request.canonical_key, flight, *published);
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.coalesced");
    trace.outcome = "coalesced";
    return std::move(*published);
  }

  trace.outcome = "miss";
  EvalOutcome outcome;
  try {
    outcome = evaluate(request, trace);
  } catch (...) {
    // evaluate() converts all failures to bodies; this path exists so
    // an unexpected throw can never strand the followers.
    flights_.complete(request.canonical_key, flight,
                      status_body("error", "internal error", &request));
    throw;
  }
  if (outcome.cacheable) {
    // Publish to the cache before retiring the flight: a request that
    // arrives after the flight is gone must find the cached body.
    cache_.put(request.key_hash, request.canonical_key, outcome.body);
  }
  flights_.complete(request.canonical_key, flight, outcome.body);
  return outcome.body;
}

ServeService::EvalOutcome ServeService::evaluate(const ServeRequest& request,
                                                 RequestTrace& trace) {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_COUNTER_INC("serve.backend.evaluations");
  HMCS_OBS_TIMER_SCOPE("serve.backend.eval_time");

  util::CancelToken token(options_.hard_cancel);
  const double budget = request.deadline_ms > 0.0
                            ? request.deadline_ms
                            : options_.default_deadline_ms;
  token.set_deadline_after_ms(budget);

  runner::PointContext ctx;
  ctx.index = static_cast<std::size_t>(trace.seq);
  ctx.seed = request.seed;
  // The request number rides along in the point label, so backend spans
  // correlate with the access log and reply timing. Labels only name
  // trace tracks: without a session none is built.
  if (options_.trace) {
    ctx.label = "serve " + request.backend_kind + " " + trace_tag(trace.seq);
  }
  ctx.trace = options_.trace;
  ctx.cancel = &token;

  const auto eval_begin = std::chrono::steady_clock::now();
  try {
    const double injected_delay_ms = chaos_->eval_delay_ms();
    if (injected_delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(injected_delay_ms));
    }
    if (chaos_->should_fail_eval()) {
      throw hmcs::Error("chaos: injected evaluate failure");
    }
    // The deadline runs from the top of this call, so time queued before
    // it is never charged. A deadline spent inside it, for example by an
    // injected delay, must yield timed_out even when the backend finishes
    // too quickly to poll the token (analytic solves are microseconds).
    token.check("serve");
    const runner::PointResult result =
        request.tree != nullptr
            ? request.backend->predict_tree(*request.tree, ctx)
            : request.backend->predict(request.config, ctx);
    ok_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.ok");
    const auto serialize_begin = add_stage(trace, "evaluate", eval_begin);
    std::string body = ok_body(request, result);
    add_stage(trace, "serialize", serialize_begin);
    return {std::move(body), true};
  } catch (const hmcs::DeadlineExceeded& error) {
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.timed_out");
    trace.outcome = "deadline";
    trace.error = true;
    const auto serialize_begin = add_stage(trace, "evaluate", eval_begin);
    std::string body = status_body("timed_out", error.what(), &request);
    add_stage(trace, "serialize", serialize_begin);
    return {std::move(body), false};
  } catch (const hmcs::Cancelled& error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.cancelled");
    trace.outcome = "error";
    trace.error = true;
    const auto serialize_begin = add_stage(trace, "evaluate", eval_begin);
    std::string body = status_body("cancelled", error.what(), &request);
    add_stage(trace, "serialize", serialize_begin);
    return {std::move(body), false};
  } catch (const std::exception& error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    HMCS_OBS_COUNTER_INC("serve.requests.error");
    trace.outcome = "error";
    trace.error = true;
    const auto serialize_begin = add_stage(trace, "evaluate", eval_begin);
    std::string body = status_body("error", error.what(), &request);
    add_stage(trace, "serialize", serialize_begin);
    return {std::move(body), false};
  }
}

std::string ServeService::compose_reply(const ServeRequest& request,
                                        const RequestTrace& trace,
                                        const std::string& body,
                                        std::uint64_t total_ns) const {
  if (!request.timing) return with_id(trace.id_json, body);
  JsonWriter json;
  json.begin_object();
  json.key("trace").value(trace_tag(trace.seq));
  json.key("total_ns").value(total_ns);
  for (std::size_t i = 0; i < trace.stage_count; ++i) {
    json.key(std::string(trace.stages[i].name) + "_ns")
        .value(trace.stages[i].duration_ns);
  }
  json.end_object();
  std::string prefix = "{";
  if (!trace.id_json.empty()) prefix += "\"id\":" + trace.id_json + ",";
  prefix += "\"timing\":" + std::move(json).str() + ",";
  return prefix + body.substr(1);
}

std::string ServeService::access_line(const RequestTrace& trace,
                                      std::uint64_t total_ns) const {
  char head[48];
  const double ts_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::snprintf(head, sizeof head, "{\"ts_ms\":%.3f", ts_ms);
  std::string line = head;
  line += ",\"trace\":\"" + trace_tag(trace.seq) + "\"";
  if (!trace.id_json.empty()) line += ",\"id\":" + trace.id_json;
  line += ",\"outcome\":\"";
  line += trace.outcome;
  line += '"';
  if (!trace.key_hex.empty()) line += ",\"key\":\"" + trace.key_hex + "\"";
  if (!trace.backend.empty()) {
    line += ",\"backend\":\"" + trace.backend + "\"";
  }
  for (std::size_t i = 0; i < trace.stage_count; ++i) {
    line += ",\"";
    line += trace.stages[i].name;
    line += "_ns\":" + std::to_string(trace.stages[i].duration_ns);
  }
  line += ",\"total_ns\":" + std::to_string(total_ns) + "}";
  return line;
}

void ServeService::finish(const RequestTrace& trace, std::uint64_t total_ns) {
  red_.record(total_ns, trace.error);
  latency_.record(total_ns);
  if (options_.trace) {
    options_.trace->complete("req " + trace_tag(trace.seq),
                             "serve.request", trace.trace_start_us,
                             static_cast<double>(total_ns) / 1000.0);
    for (std::size_t i = 0; i < trace.stage_count; ++i) {
      const RequestTrace::Stage& stage = trace.stages[i];
      options_.trace->complete(
          stage.name, "serve.stage",
          trace.trace_start_us +
              static_cast<double>(stage.start_ns) / 1000.0,
          static_cast<double>(stage.duration_ns) / 1000.0);
    }
  }
  if (options_.access_log) {
    options_.access_log->try_append(access_line(trace, total_ns));
  }
}

std::string ServeService::shed_reply() {
  return R"({"status":"shed","error":"server overloaded: request queue full"})";
}

void ServeService::note_shed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
  HMCS_OBS_COUNTER_INC("serve.requests.shed");
  if (options_.access_log) {
    const std::uint64_t seq =
        sequence_.fetch_add(1, std::memory_order_relaxed);
    RequestTrace trace;
    trace.seq = seq;
    trace.outcome = "shed";
    options_.access_log->try_append(access_line(trace, 0));
  }
}

ServeService::Counters ServeService::counters() const {
  Counters counters;
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.ok = ok_.load(std::memory_order_relaxed);
  counters.errors = errors_.load(std::memory_order_relaxed);
  counters.timed_out = timed_out_.load(std::memory_order_relaxed);
  counters.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  counters.coalesced = coalesced_.load(std::memory_order_relaxed);
  counters.evaluations = evaluations_.load(std::memory_order_relaxed);
  counters.shed = shed_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace hmcs::serve
