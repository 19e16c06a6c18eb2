// Tests for the hmcs_serve layer: the sharded LRU cache, canonical
// request keys, the service's cache/single-flight/deadline semantics,
// the bounded queue and the worker pool behind it, and the TCP server's
// graceful drain (every accepted request answered, over real sockets).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hmcs/analytic/config_io.hpp"
#include "hmcs/serve/bounded_queue.hpp"
#include "hmcs/serve/cache.hpp"
#include "hmcs/serve/request.hpp"
#include "hmcs/serve/server.hpp"
#include "hmcs/serve/service.hpp"
#include "hmcs/serve/single_flight.hpp"
#include "hmcs/serve/thread_pool.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

serve::ServeRequest parse_line(const std::string& line) {
  return serve::parse_request(parse_json(line));
}

// ---------------------------------------------------------------------------
// ShardedResultCache

TEST(ServeCache, StoresAndEvictsLru) {
  serve::ShardedResultCache cache({.shards = 1, .capacity = 2});
  cache.put(1, "a", "A");
  cache.put(2, "b", "B");
  EXPECT_EQ(cache.get(1, "a"), std::optional<std::string>("A"));
  // "b" is now LRU; inserting "c" evicts it.
  cache.put(3, "c", "C");
  EXPECT_FALSE(cache.get(2, "b").has_value());
  EXPECT_EQ(cache.get(1, "a"), std::optional<std::string>("A"));
  EXPECT_EQ(cache.get(3, "c"), std::optional<std::string>("C"));

  const serve::ShardedResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ServeCache, HashCollisionsDoNotShareReplies) {
  serve::ShardedResultCache cache({.shards = 4, .capacity = 16});
  // Same hash, different keys: must be distinct entries.
  cache.put(7, "first", "1");
  cache.put(7, "second", "2");
  EXPECT_EQ(cache.get(7, "first"), std::optional<std::string>("1"));
  EXPECT_EQ(cache.get(7, "second"), std::optional<std::string>("2"));
}

TEST(ServeCache, PutIsIdempotent) {
  serve::ShardedResultCache cache({.shards = 2, .capacity = 8});
  cache.put(5, "k", "v");
  cache.put(5, "k", "v");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.get(5, "k"), std::optional<std::string>("v"));
}

TEST(ServeCache, PeekCountsNothingAndKeepsLruOrder) {
  serve::ShardedResultCache cache({.shards = 1, .capacity = 2});
  cache.put(1, "a", "A");
  cache.put(2, "b", "B");
  EXPECT_EQ(cache.peek(1, "a"), std::optional<std::string>("A"));
  EXPECT_FALSE(cache.peek(3, "c").has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // The peek did not refresh "a": it is still LRU and "c" evicts it.
  cache.put(3, "c", "C");
  EXPECT_FALSE(cache.peek(1, "a").has_value());
  EXPECT_EQ(cache.peek(2, "b"), std::optional<std::string>("B"));
}

// ---------------------------------------------------------------------------
// Canonical request keys

TEST(ServeRequestKey, MemberOrderDoesNotMatter) {
  const serve::ServeRequest a = parse_line(
      R"({"config":{"clusters":8,"total_nodes":256,"message_bytes":2048}})");
  const serve::ServeRequest b = parse_line(
      R"({"config":{"message_bytes":2048,"total_nodes":256,"clusters":8}})");
  EXPECT_EQ(a.canonical_key, b.canonical_key);
  EXPECT_EQ(a.key_hash, b.key_hash);
}

TEST(ServeRequestKey, ExplicitDefaultsMatchOmitted) {
  // "case1" and paper defaults spelled out explicitly must collapse to
  // the same key as the all-defaults request.
  const serve::ServeRequest implicit = parse_line(R"({"config":{}})");
  const serve::ServeRequest expanded = parse_line(
      R"({"backend":{"type":"analytic"},
          "config":{"clusters":1,"total_nodes":256,
                    "architecture":"non-blocking","technology":"case1",
                    "message_bytes":1024,"lambda_per_s":250}})");
  EXPECT_EQ(implicit.canonical_key, expanded.canonical_key);
}

TEST(ServeRequestKey, NodesPerClusterEqualsTotalNodes) {
  const serve::ServeRequest by_total =
      parse_line(R"({"config":{"clusters":4,"total_nodes":64}})");
  const serve::ServeRequest by_per_cluster =
      parse_line(R"({"config":{"clusters":4,"nodes_per_cluster":16}})");
  EXPECT_EQ(by_total.canonical_key, by_per_cluster.canonical_key);
}

TEST(ServeRequestKey, SeedIgnoredForAnalyticOnly) {
  const serve::ServeRequest analytic_a =
      parse_line(R"({"config":{},"seed":1})");
  const serve::ServeRequest analytic_b =
      parse_line(R"({"config":{},"seed":2})");
  EXPECT_EQ(analytic_a.canonical_key, analytic_b.canonical_key);

  const serve::ServeRequest des_a = parse_line(
      R"({"backend":{"type":"des","messages":100,"warmup":10},
          "config":{},"seed":1})");
  const serve::ServeRequest des_b = parse_line(
      R"({"backend":{"type":"des","messages":100,"warmup":10},
          "config":{},"seed":2})");
  EXPECT_NE(des_a.canonical_key, des_b.canonical_key);
}

TEST(ServeRequestKey, RejectsUnknownMembers) {
  EXPECT_THROW(parse_line(R"({"config":{},"bogus":1})"), ConfigError);
  EXPECT_THROW(parse_line(R"({"config":{"bogus":1}})"), ConfigError);
}

TEST(ServeRequestKey, DefaultWorkloadCollapsesOntoLegacyKey) {
  // The workload extension must not perturb existing cache lines: a
  // request spelling out the default scenario keys byte-identically to
  // one that never mentions "workload" — and neither key contains the
  // member at all, so pre-workload caches and snapshots stay warm.
  const serve::ServeRequest legacy =
      parse_line(R"({"config":{"clusters":8,"total_nodes":256}})");
  const serve::ServeRequest spelled = parse_line(
      R"({"config":{"clusters":8,"total_nodes":256,
                    "workload":{"service_cv2":1.0,"arrival_ca2":1.0}}})");
  EXPECT_EQ(legacy.canonical_key, spelled.canonical_key);
  EXPECT_EQ(legacy.canonical_key.find("workload"), std::string::npos);
}

TEST(ServeRequestKey, NonDefaultWorkloadGetsItsOwnKey) {
  const serve::ServeRequest legacy =
      parse_line(R"({"config":{"clusters":8,"total_nodes":256}})");
  const serve::ServeRequest hyper = parse_line(
      R"({"config":{"clusters":8,"total_nodes":256,
                    "workload":{"service_cv2":4.0}}})");
  EXPECT_NE(legacy.canonical_key, hyper.canonical_key);
  EXPECT_NE(hyper.canonical_key.find("workload"), std::string::npos);

  // Distinct scenarios key distinctly too.
  const serve::ServeRequest mmpp = parse_line(
      R"({"config":{"clusters":8,"total_nodes":256,
                    "workload":{"mmpp":{"burst_ratio":4.0}}}})");
  EXPECT_NE(hyper.canonical_key, mmpp.canonical_key);
  const serve::ServeRequest failure = parse_line(
      R"({"config":{"clusters":8,"total_nodes":256,
                    "workload":{"failure":{"mtbf_us":1e6,"mttr_us":1e3}}}})");
  EXPECT_NE(mmpp.canonical_key, failure.canonical_key);
}

TEST(ServeRequestKey, WorkloadRejectsUnknownAndConflictingMembers) {
  EXPECT_THROW(
      parse_line(R"({"config":{"workload":{"cv2":2.0}}})"), ConfigError);
  EXPECT_THROW(parse_line(R"({"config":{"workload":{
      "arrival_ca2":2.0,"mmpp":{"burst_ratio":2.0}}}})"),
               ConfigError);
}

TEST(ServeRequestKey, NestedFlatShapeCollidesWithFlatSchema) {
  // A depth-2 tree spelling the exact two-stage case-1 system must be
  // lowered at parse time and share the flat schema's canonical key
  // (and therefore its cache line).
  const serve::ServeRequest flat = parse_line(
      R"({"config":{"clusters":2,"nodes_per_cluster":32,
                    "technology":"case1","message_bytes":1024,
                    "lambda_per_s":250,
                    "switch_ports":24,"switch_latency_us":10}})");
  const serve::ServeRequest nested = parse_line(
      R"({"config":{"tree":{
            "network":"fast-ethernet",
            "children":[
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":32,"lambda_per_s":250}]},
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":32,"lambda_per_s":250}]}]},
          "message_bytes":1024,
          "switch_ports":24,"switch_latency_us":10}})");
  EXPECT_EQ(nested.tree, nullptr);  // lowered, not kept as a tree
  EXPECT_EQ(nested.canonical_key, flat.canonical_key);
  EXPECT_EQ(nested.key_hash, flat.key_hash);
}

/// A random flat system spelled twice: as a flat `config` and as a
/// flat-shaped `tree` (one root network over `clusters` identical
/// clusters of one leaf group each).
struct TwoSpellings {
  std::string flat;
  std::string tree;
};

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The tree schema's object spelling of a technology, built from the
/// network it names.
std::string technology_object(const std::string& spec) {
  const analytic::NetworkTechnology tech = analytic::parse_technology(spec);
  return R"({"name":")" + tech.name + R"(","latency_us":)" +
         json_number(tech.latency_us) + R"(,"bandwidth_mb_per_s":)" +
         json_number(tech.bandwidth_bytes_per_us) + "}";
}

TwoSpellings random_flat_system(std::mt19937_64& rng) {
  auto below = [&rng](std::uint64_t n) { return rng() % n; };
  auto pick = [&below](std::initializer_list<const char*> items) {
    return std::string(items.begin()[below(items.size())]);
  };
  auto random_technology = [&] {
    if (below(2) == 0) {
      return pick({"gigabit-ethernet", "fast-ethernet", "myrinet",
                   "infiniband"});
    }
    return "custom:net" + std::to_string(below(4)) + "," +
           json_number(static_cast<double>(below(200)) * 0.25) + "," +
           json_number(static_cast<double>(1 + below(40000)) * 0.5);
  };

  const std::uint64_t clusters = 1 + below(8);
  std::uint64_t nodes = 1 + below(48);
  if (clusters * nodes < 2) nodes = 2;

  // Technologies: a case, one network for all three, or one per network
  // (ICN1, ECN1, ICN2); the tree always names each network.
  std::string flat_technology;
  std::string icn1, ecn1, icn2;
  switch (below(4)) {
    case 0: {
      const bool case1 = below(2) == 0;
      flat_technology = case1 ? R"("case1")" : R"("case2")";
      icn1 = case1 ? "gigabit-ethernet" : "fast-ethernet";
      ecn1 = icn2 = case1 ? "fast-ethernet" : "gigabit-ethernet";
      break;
    }
    case 1:
      icn1 = ecn1 = icn2 = random_technology();
      flat_technology = "\"" + icn1 + "\"";
      break;
    case 2:
      icn1 = random_technology();
      ecn1 = random_technology();
      icn2 = random_technology();
      flat_technology = R"({"icn1":")" + icn1 + R"(","ecn1":")" + ecn1 +
                        R"(","icn2":")" + icn2 + R"("})";
      break;
    default:  // omitted: case 1
      icn1 = "gigabit-ethernet";
      ecn1 = icn2 = "fast-ethernet";
  }
  auto tree_technology = [&below](const std::string& spec) {
    return below(2) == 0 ? "\"" + spec + "\"" : technology_object(spec);
  };

  // Members both schemas share, each present or omitted (the default).
  std::string shared;
  auto add = [&shared](const std::string& key, const std::string& value) {
    shared += ",\"" + key + "\":" + value;
  };
  if (below(4) != 0) {
    add("architecture", "\"" + pick({"non-blocking", "blocking", "fat-tree",
                                     "chain"}) + "\"");
  }
  if (below(4) != 0) {
    add("message_bytes",
        json_number(static_cast<double>(1 + below(16384)) * 0.5));
  }
  if (below(4) != 0) add("switch_ports", std::to_string(4 + 2 * below(30)));
  if (below(4) != 0) {
    add("switch_latency_us",
        json_number(static_cast<double>(below(100)) * 0.5));
  }
  switch (below(5)) {
    case 0:
      add("workload", R"({"service_cv2":)" +
                          json_number(static_cast<double>(below(9)) * 0.5) +
                          "}");
      break;
    case 1:
      add("workload", R"({"arrival_ca2":)" +
                          json_number(static_cast<double>(below(9)) * 0.5) +
                          R"(,"service_cv2":1})");
      break;
    case 2:
      add("workload",
          R"({"mmpp":{"burst_ratio":)" +
              json_number(1.0 + static_cast<double>(below(8))) +
              R"(,"burst_fraction":)" +
              json_number(static_cast<double>(1 + below(9)) * 0.1) +
              R"(,"burst_dwell_us":)" +
              json_number(static_cast<double>(1 + below(1000)) * 10.0) +
              "}}");
      break;
    case 3:
      add("workload",
          R"({"failure":{"mtbf_us":)" +
              json_number(static_cast<double>(1 + below(1000)) * 100.0) +
              R"(,"mttr_us":)" +
              json_number(static_cast<double>(below(100)) * 5.0) + "}}");
      break;
    default:
      break;
  }

  // λ, per processor: present (zero, the analytic model's no-load
  // case, one draw in eight) or omitted in both.
  std::string lambda_member;
  if (below(4) != 0) {
    const double lambda =
        below(8) == 0 ? 0.0 : static_cast<double>(1 + below(4000)) * 0.25;
    lambda_member = R"(,"lambda_per_s":)" + json_number(lambda);
  }

  TwoSpellings out;
  out.flat = R"({"clusters":)" + std::to_string(clusters) +
             (below(2) == 0
                  ? R"(,"nodes_per_cluster":)" + std::to_string(nodes)
                  : R"(,"total_nodes":)" + std::to_string(clusters * nodes)) +
             (flat_technology.empty() ? ""
                                      : R"(,"technology":)" + flat_technology) +
             lambda_member + shared + "}";
  std::string children;
  for (std::uint64_t c = 0; c < clusters; ++c) {
    if (c > 0) children += ",";
    children += R"({"network":)" + tree_technology(icn1) +
                R"(,"egress":)" + tree_technology(ecn1) +
                R"(,"children":[{"processors":)" + std::to_string(nodes) +
                lambda_member + "}]}";
  }
  out.tree = R"({"tree":{"network":)" + tree_technology(icn2) +
             R"(,"children":[)" + children + "]}" + shared + "}";
  return out;
}

TEST(ServeRequestKey, RandomFlatSystemsKeyAlikeNestedOrFlat) {
  // Differential check of the two config schemas: every random flat
  // system written as a flat-shaped tree must be lowered at parse time
  // and share the flat spelling's canonical key and hash, under a
  // deterministic and a stochastic backend.
  std::mt19937_64 rng(20261020);
  const std::string backends[] = {
      "", R"("backend":{"type":"analytic"},)",
      R"("backend":{"type":"des","messages":500,"warmup":50},"seed":7,)"};
  for (int i = 0; i < 400; ++i) {
    const TwoSpellings system = random_flat_system(rng);
    for (const std::string& backend : backends) {
      SCOPED_TRACE("flat: " + system.flat + "\ntree: " + system.tree +
                   "\nbackend: " + backend);
      const serve::ServeRequest flat =
          parse_line("{" + backend + R"("config":)" + system.flat + "}");
      const serve::ServeRequest nested =
          parse_line("{" + backend + R"("config":)" + system.tree + "}");
      ASSERT_EQ(flat.tree, nullptr);
      ASSERT_EQ(nested.tree, nullptr);  // lowered, not kept as a tree
      ASSERT_EQ(nested.canonical_key, flat.canonical_key);
      ASSERT_EQ(nested.key_hash, flat.key_hash);
    }
  }
}

TEST(ServeRequestKey, GenuinelyNestedTreeGetsItsOwnKey) {
  // Unequal children cannot lower; the request keeps the tree and keys
  // on the canonical recursive document.
  const serve::ServeRequest request = parse_line(
      R"({"config":{"tree":{
            "network":"fast-ethernet",
            "children":[
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":32,"lambda_per_s":250},
                           {"processors":8,"lambda_per_s":100}]}]}}})");
  ASSERT_NE(request.tree, nullptr);
  EXPECT_NE(request.canonical_key.find("\"tree\""), std::string::npos);
}

TEST(ServeRequestKey, NestedSchemaRejectsUnknownMembersUniformly) {
  // Typos fail loudly in the nested schema exactly as in the flat one.
  EXPECT_THROW(parse_line(
                   R"({"config":{"tree":{"network":"fast-ethernet",
                        "children":[{"processors":2,"lambda_per_s":1}]},
                        "bogus":1}})"),
               ConfigError);
  EXPECT_THROW(parse_line(
                   R"({"config":{"tree":{"network":"fast-ethernet",
                        "bogus":1,
                        "children":[{"processors":2,"lambda_per_s":1}]}}})"),
               ConfigError);
  EXPECT_THROW(parse_line(
                   R"({"config":{"tree":{"network":"fast-ethernet",
                        "children":[{"processors":2,"lambda_per_s":1,
                                     "bogus":1}]}}})"),
               ConfigError);
}

// ---------------------------------------------------------------------------
// ServeService

constexpr const char* kTinyRequest =
    R"({"id":"r1","config":{"clusters":2,"total_nodes":32}})";

TEST(ServeService, CachedReplyIsByteIdenticalToCold) {
  serve::ServeService service({});
  const std::string cold = service.handle_line(kTinyRequest);
  EXPECT_NE(cold.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(cold.find("\"id\":\"r1\""), std::string::npos);
  const std::string warm = service.handle_line(kTinyRequest);
  EXPECT_EQ(warm, cold);

  const serve::ShardedResultCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(service.counters().evaluations, 1u);
}

TEST(ServeService, EvaluatesNonDefaultWorkloadRequests) {
  // End-to-end: a cv^2 = 4 request misses the default request's cache
  // line, evaluates through the G/G/1 path, and prices higher latency.
  serve::ServeService service({});
  const std::string base = service.handle_line(
      R"({"config":{"clusters":2,"total_nodes":32,"lambda_per_s":250}})");
  const std::string hyper = service.handle_line(
      R"({"config":{"clusters":2,"total_nodes":32,"lambda_per_s":250,
                    "workload":{"service_cv2":4.0}}})");
  EXPECT_EQ(service.counters().evaluations, 2u);  // distinct cache lines
  const auto latency_of = [](const std::string& reply) {
    const JsonValue doc = parse_json(reply);
    return doc.at("result").at("mean_latency_us").as_number();
  };
  EXPECT_GT(latency_of(hyper), latency_of(base));
}

TEST(ServeService, DifferentIdSameConfigSharesTheCacheEntry) {
  serve::ServeService service({});
  const std::string first = service.handle_line(
      R"({"id":"a","config":{"clusters":2,"total_nodes":32}})");
  const std::string second = service.handle_line(
      R"({"id":"b","config":{"clusters":2,"total_nodes":32}})");
  EXPECT_EQ(service.counters().evaluations, 1u);
  // Bodies differ only in the spliced id.
  EXPECT_NE(first.find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(second.find("\"id\":\"b\""), std::string::npos);
  EXPECT_EQ(first.substr(first.find("\"status\"")),
            second.substr(second.find("\"status\"")));
}

TEST(ServeService, SingleFlightCoalescesConcurrentDuplicates) {
  serve::ServeService service({});
  // A key expensive enough (exact MVA, many nodes) that followers pile
  // onto the leader's flight.
  const std::string heavy =
      R"({"backend":{"type":"analytic","model":"mva"},
          "config":{"clusters":8,"total_nodes":65536}})";
  constexpr std::size_t kThreads = 8;
  std::vector<std::string> replies(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { replies[i] = service.handle_line(heavy); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(service.counters().evaluations, 1u);
  for (const std::string& reply : replies) {
    EXPECT_EQ(reply, replies[0]);
    EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos);
  }
}

TEST(ServeService, ExpiredDeadlineYieldsTimedOutReply) {
  serve::ServeService service({});
  const std::string reply = service.handle_line(
      R"({"id":"d","config":{"clusters":2,"total_nodes":32},
          "deadline_ms":1e-9})");
  EXPECT_NE(reply.find("\"status\":\"timed_out\""), std::string::npos);
  EXPECT_NE(reply.find("\"id\":\"d\""), std::string::npos);
  EXPECT_EQ(service.counters().timed_out, 1u);
  // Failures are never cached: the same key without a deadline works.
  const std::string retry = service.handle_line(
      R"({"id":"d","config":{"clusters":2,"total_nodes":32}})");
  EXPECT_NE(retry.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeService, DeadlineBeyondTheClockIsNoDeadline) {
  // The steady clock ends ~9.2e12 ms out (int64 ns); a longer budget
  // arms no deadline instead of overflowing into one already passed.
  for (const char* deadline : {"1e13", "1e300"}) {
    serve::ServeService service({});
    const std::string reply = service.handle_line(
        std::string(R"({"id":"d","backend":{"type":"analytic","model":"mva"},
            "config":{"clusters":2,"total_nodes":32},"deadline_ms":)") +
        deadline + "}");
    EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos)
        << deadline << ": " << reply;
    EXPECT_EQ(service.counters().timed_out, 0u) << deadline;
  }
}

TEST(ServeService, MalformedLineGetsErrorReplyWithId) {
  serve::ServeService service({});
  const std::string garbage = service.handle_line("not json at all");
  EXPECT_NE(garbage.find("\"status\":\"error\""), std::string::npos);

  const std::string bad = service.handle_line(
      R"({"id":7,"config":{"clusters":3,"total_nodes":32}})");
  EXPECT_NE(bad.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(bad.find("\"id\":7"), std::string::npos);
  EXPECT_EQ(service.counters().bad_requests, 2u);
}

TEST(ServeService, OneNodeRequestsAreBadRequests) {
  // A lone processor's messages have no destination, flat or nested.
  serve::ServeService service({});
  const std::string flat = service.handle_line(
      R"({"id":"f","config":{"clusters":1,"total_nodes":1}})");
  EXPECT_NE(flat.find("\"status\":\"error\""), std::string::npos) << flat;
  const std::string nested = service.handle_line(
      R"({"id":"n","config":{"tree":{"network":"fast-ethernet",
          "children":[{"network":"gigabit-ethernet","egress":"fast-ethernet",
                       "children":[{"processors":1}]}]}}})");
  EXPECT_NE(nested.find("\"status\":\"error\""), std::string::npos)
      << nested;
  EXPECT_EQ(service.counters().bad_requests, 2u);
}

TEST(ServeService, PingAndStatsOps) {
  serve::ServeService service({});
  const std::string pong = service.handle_line(R"({"op":"ping","id":"p"})");
  EXPECT_NE(pong.find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(pong.find("\"id\":\"p\""), std::string::npos);

  service.handle_line(kTinyRequest);
  const JsonValue stats =
      parse_json(service.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.at("serve").at("evaluations").as_number(), 1.0);
  EXPECT_EQ(stats.at("cache").at("misses").as_number(), 1.0);
}

TEST(ServeService, NoCacheBypassesTheCache) {
  serve::ServeService service({});
  service.handle_line(
      R"({"config":{"clusters":2,"total_nodes":32},"no_cache":true})");
  service.handle_line(
      R"({"config":{"clusters":2,"total_nodes":32},"no_cache":true})");
  EXPECT_EQ(service.counters().evaluations, 2u);
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

TEST(ServeService, EvaluatesNestedTreeRequests) {
  serve::ServeService service({});
  const std::string reply = service.handle_line(
      R"({"id":"t1","config":{"tree":{
            "network":"fast-ethernet",
            "children":[
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":16,"lambda_per_s":100},
                           {"processors":8,"lambda_per_s":50}]},
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":32,"lambda_per_s":75}]}]},
          "message_bytes":1024}})");
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(reply.find("\"id\":\"t1\""), std::string::npos);
  EXPECT_NE(reply.find("mean_latency_us"), std::string::npos);

  // The warm path replays the cached body byte-for-byte.
  const std::string warm = service.handle_line(
      R"({"id":"t1","config":{"tree":{
            "network":"fast-ethernet",
            "children":[
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":16,"lambda_per_s":100},
                           {"processors":8,"lambda_per_s":50}]},
              {"network":"gigabit-ethernet","egress":"fast-ethernet",
               "children":[{"processors":32,"lambda_per_s":75}]}]},
          "message_bytes":1024}})");
  EXPECT_EQ(warm, reply);
  EXPECT_EQ(service.counters().evaluations, 1u);
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(ServeQueue, RefusesAtTheLimitAndAfterClose) {
  serve::BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_TRUE(queue.try_push(3));  // room again
  queue.close();
  EXPECT_FALSE(queue.try_push(4));  // closed, though not full
  // Items queued before the close are still handed out.
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(ServeQueue, ReturnsItemsInFifoOrder) {
  serve::BoundedQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.try_push(i));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(queue.pop(), std::optional<int>(i));
  std::deque<int> batch;
  EXPECT_TRUE(queue.pop_all_after(std::chrono::milliseconds(1), batch));
  EXPECT_EQ(batch, (std::deque<int>{4, 5, 6, 7}));
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_TRUE(queue.try_push(8));
  queue.close();
  // A closed queue returns its last items at once, without the timeout.
  EXPECT_FALSE(queue.pop_all_after(std::chrono::hours(1), batch));
  EXPECT_EQ(batch, std::deque<int>{8});
}

TEST(ServeQueue, CloseWakesEveryBlockedPop) {
  serve::BoundedQueue<int> queue(4);
  std::atomic<int> waiting{0};
  std::vector<std::future<std::optional<int>>> pops;
  for (int i = 0; i < 3; ++i) {
    pops.push_back(std::async(std::launch::async, [&] {
      waiting.fetch_add(1);
      return queue.pop();
    }));
  }
  std::future<bool> batch_pop = std::async(std::launch::async, [&] {
    std::deque<int> batch;
    return queue.pop_all_after(std::chrono::hours(1), batch);
  });
  while (waiting.load() != 3) std::this_thread::yield();
  queue.close();
  for (auto& pop : pops) {
    ASSERT_EQ(pop.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(pop.get(), std::nullopt);
  }
  ASSERT_EQ(batch_pop.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(batch_pop.get());
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ServePool, RunsEverythingAndBoundsTheQueue) {
  serve::ThreadPool pool(2, 4);
  std::atomic<int> ran{0};
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  // Block both workers so submissions pile up in the queue.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.try_submit([&] {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
      ran.fetch_add(1);
    }));
  }
  // Wait for the workers to pick the blockers up so the queue is empty.
  while (pool.queued() != 0) std::this_thread::yield();
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 16; ++i) {
    if (pool.try_submit([&] { ran.fetch_add(1); })) {
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, 4);  // bounded at queue_limit
  EXPECT_EQ(refused, 12);
  {
    const std::scoped_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  pool.drain();
  EXPECT_EQ(ran.load(), 2 + accepted);  // drain ran every accepted task
  EXPECT_FALSE(pool.try_submit([] {}));  // drained pool refuses work
}

TEST(ServePool, SubmissionBeforeAnIdleWorkerWaitsIsNotLost) {
  // The lone worker runs one task, goes back to the queue and waits;
  // a task submitted then must wake it. The pool has no wait timeout,
  // so a lost wake-up would leave the task unrun until drain.
  serve::ThreadPool pool(1, 4);
  std::promise<void> first_ran;
  ASSERT_TRUE(pool.try_submit([&] { first_ran.set_value(); }));
  first_ran.get_future().wait();
  // Give the worker time to return to the queue and block in its wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::promise<void> ran;
  const std::future<void> done = ran.get_future();
  ASSERT_TRUE(pool.try_submit([&] { ran.set_value(); }));
  EXPECT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  pool.drain();
}

TEST(ServePool, ContendedSubmissionsRunEachAcceptedTaskExactlyOnce) {
  // Four producers race three workers over a short queue, so both
  // acceptances and refusals happen. Every accepted task must run
  // exactly once, every refused one never.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kTasksEach = 2000;
  constexpr std::size_t kTasks = kProducers * kTasksEach;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<char> accepted(kTasks, 0);  // each producer writes its own
  {
    serve::ThreadPool pool(3, 8);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t id = p * kTasksEach; id < (p + 1) * kTasksEach;
             ++id) {
          accepted[id] = pool.try_submit([&runs, id] { runs[id]++; }) ? 1 : 0;
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    pool.drain();
  }
  std::size_t total_accepted = 0;
  std::size_t total_refused = 0;
  for (std::size_t id = 0; id < kTasks; ++id) {
    EXPECT_EQ(runs[id].load(), accepted[id]) << "task " << id;
    if (accepted[id] != 0) {
      ++total_accepted;
    } else {
      ++total_refused;
    }
  }
  EXPECT_EQ(total_accepted + total_refused, kTasks);
  EXPECT_GT(total_accepted, 0u);
}

// ---------------------------------------------------------------------------
// ServeServer over real sockets

class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                        sizeof address),
              0)
        << std::strerror(errno);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string frame = line + "\n";
    ASSERT_EQ(::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  /// Reads reply lines until EOF (the server closing the socket).
  std::vector<std::string> read_until_eof() {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const ssize_t received = ::recv(fd_, chunk, sizeof chunk, 0);
      if (received <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(received));
      for (;;) {
        const std::size_t newline = buffer.find('\n');
        if (newline == std::string::npos) break;
        lines.push_back(buffer.substr(0, newline));
        buffer.erase(0, newline + 1);
      }
    }
    return lines;
  }

 private:
  int fd_ = -1;
};

TEST(ServeServer, DrainAnswersEveryAcceptedRequest) {
  serve::ServeServer::Options options;
  // One worker + distinct multi-millisecond keys: when the shutdown
  // lands, most accepted requests are still waiting in the pool's
  // queue, which is exactly what the drain must not lose.
  options.threads = 1;
  serve::ServeServer server(options);
  const std::uint16_t port = server.start();
  std::thread accept_thread([&] { server.serve(); });

  constexpr int kRequests = 12;
  TestClient client(port);
  for (int i = 0; i < kRequests; ++i) {
    client.send_line(
        R"({"id":)" + std::to_string(i) +
        R"(,"backend":{"type":"analytic","model":"mva"},)" +
        R"("config":{"clusters":8,"total_nodes":65536,"message_bytes":)" +
        std::to_string(1024 + i) + "}}");
  }
  // Wait until every line has been read off the socket (a byte still in
  // the client's Nagle buffer was never accepted by the server), then
  // shut down with the bulk of the work still queued.
  while (server.stats().lines < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();
  accept_thread.join();

  const std::vector<std::string> replies = client.read_until_eof();
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
  std::vector<bool> seen(kRequests, false);
  for (const std::string& reply : replies) {
    EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
    const JsonValue doc = parse_json(reply);
    seen[static_cast<int>(doc.at("id").as_number())] = true;
  }
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(seen[i]) << "request " << i << " was never answered";
  }
  EXPECT_EQ(server.service().counters().ok,
            static_cast<std::uint64_t>(kRequests));  // all distinct keys
}

TEST(ServeServer, ServesColdAndWarmOverTcp) {
  serve::ServeServer::Options options;
  options.threads = 2;
  serve::ServeServer server(options);
  const std::uint16_t port = server.start();
  std::thread accept_thread([&] { server.serve(); });

  {
    TestClient client(port);
    client.send_line(kTinyRequest);
    client.send_line(kTinyRequest);
    client.send_line("garbage");
    // Give the daemon time to answer, then stop; drain flushes replies.
    while (server.service().counters().requests < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.shutdown();
    accept_thread.join();

    const std::vector<std::string> replies = client.read_until_eof();
    ASSERT_EQ(replies.size(), 3u);
    int ok = 0;
    int errors = 0;
    for (const std::string& reply : replies) {
      if (reply.find("\"status\":\"ok\"") != std::string::npos) ++ok;
      if (reply.find("\"status\":\"error\"") != std::string::npos) ++errors;
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(errors, 1);
  }
  // Under load (e.g. sanitizer builds) the second identical request can
  // land while the first is still evaluating, in which case it
  // coalesces onto the in-flight evaluation instead of hitting the
  // cache. Either way it must have been served without recomputation.
  EXPECT_EQ(server.service().cache_stats().hits +
                server.service().counters().coalesced,
            1u);
}

}  // namespace
