// The shared JSON member readers (util/json.hpp): the one integer reader
// against the destination type's range, and one end-to-end case per
// reader that uses it — serve requests, sweep configs, chaos plans,
// journals and tree configs all reject an integer they cannot store
// instead of truncating it.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "hmcs/analytic/tree_io.hpp"
#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_config.hpp"
#include "hmcs/serve/chaos.hpp"
#include "hmcs/serve/request.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

struct IntegerCase {
  const char* json;  ///< the member's value as it appears in a document
  int bits;          ///< destination width: 32 or 64
  std::optional<std::uint64_t> expected;  ///< nullopt = must throw
};

TEST(JsonMember, IntegerReaderTable) {
  constexpr std::uint64_t kU32Max = 4294967295u;
  constexpr std::uint64_t kU64Max = 18446744073709551615u;
  const IntegerCase cases[] = {
      {"0", 32, 0},
      {"-0", 32, 0},
      {"1e9", 32, 1000000000},
      {"4294967295", 32, kU32Max},
      // 2^32 and above do not fit: rejected, never wrapped to 2^32 - k.
      {"4294967296", 32, std::nullopt},
      {"4294967297", 32, std::nullopt},
      {"4294967304", 32, std::nullopt},
      {"32.7", 32, std::nullopt},
      {"-1", 32, std::nullopt},
      {"1e300", 32, std::nullopt},
      {"\"7\"", 32, std::nullopt},  // only the u64 form takes strings
      {"true", 32, std::nullopt},
      {"null", 32, std::nullopt},
      // u64 numbers: the largest double below 2^64 fits; 2^64 does not.
      {"18446744073709549568", 64, 18446744073709549568u},
      {"18446744073709551616", 64, std::nullopt},
      {"1e300", 64, std::nullopt},
      {"-1", 64, std::nullopt},
      {"0.5", 64, std::nullopt},
      // u64 decimal strings: exact to 2^64 - 1, digits only.
      {"\"18446744073709551615\"", 64, kU64Max},
      {"\"007\"", 64, 7},
      {"\"18446744073709551616\"", 64, std::nullopt},
      {"\"-1\"", 64, std::nullopt},
      {"\"+7\"", 64, std::nullopt},
      {"\" 7\"", 64, std::nullopt},
      {"\"7 \"", 64, std::nullopt},
      {"\"\"", 64, std::nullopt},
      {"\"0x10\"", 64, std::nullopt},
      {"\"1e3\"", 64, std::nullopt},
      {"\"7.0\"", 64, std::nullopt},
  };
  for (const IntegerCase& c : cases) {
    SCOPED_TRACE(std::string(c.json) + " as u" + std::to_string(c.bits));
    const JsonValue value = parse_json(c.json);
    const auto read = [&]() -> std::uint64_t {
      return c.bits == 32 ? json_uint<std::uint32_t>(value, "test", "n")
                          : json_uint<std::uint64_t>(value, "test", "n");
    };
    if (c.expected.has_value()) {
      EXPECT_EQ(read(), *c.expected);
    } else {
      EXPECT_THROW(read(), ConfigError);
    }
  }
}

TEST(JsonMember, MembersTakeFallbacksAndRejectOtherKinds) {
  const JsonValue doc =
      parse_json(R"({"n": 3, "s": "x", "b": true, "wrong": "3"})");
  EXPECT_EQ(uint_member(doc, "n", std::uint32_t{9}, "test"), 3u);
  EXPECT_EQ(uint_member(doc, "absent", std::uint32_t{9}, "test"), 9u);
  EXPECT_EQ(number_member(doc, "n", 1.5, "test"), 3.0);
  EXPECT_EQ(number_member(doc, "absent", 1.5, "test"), 1.5);
  EXPECT_EQ(string_member(doc, "s", "y", "test"), "x");
  EXPECT_EQ(string_member(doc, "absent", "y", "test"), "y");
  EXPECT_TRUE(bool_member(doc, "b", false, "test"));
  EXPECT_FALSE(bool_member(doc, "absent", false, "test"));
  EXPECT_THROW(number_member(doc, "wrong", 0.0, "test"), ConfigError);
  EXPECT_THROW(bool_member(doc, "s", false, "test"), ConfigError);
  EXPECT_THROW(string_member(doc, "n", "", "test"), ConfigError);
  EXPECT_THROW(uint_member(doc, "wrong", std::uint32_t{0}, "test"),
               ConfigError);
  EXPECT_NO_THROW(
      reject_unknown_members(doc, {"n", "s", "b", "wrong"}, "test", "doc"));
  try {
    reject_unknown_members(doc, {"n", "s", "b"}, "test", "the doc");
    FAIL() << "unknown member accepted";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("test: unknown key 'wrong' in "
                                             "the doc"),
              std::string::npos);
  }
}

TEST(JsonMember, ServeRejectsIntegersItCannotStore) {
  const char* requests[] = {
      R"({"config": {"clusters": 4294967304}})",
      R"({"config": {"clusters": 8, "nodes_per_cluster": 32.7}})",
      R"({"config": {"switch_ports": 4294967320}})",
      R"({"config": {"clusters": 8}, "seed": "-1"})",
      R"({"config": {"clusters": 8}, "seed": " 7"})",
      R"({"config": {"clusters": 8}, "seed": 1e300})",
      R"({"backend": {"type": "des", "replications": 4294967297},
          "config": {"clusters": 8}})",
  };
  for (const char* line : requests) {
    SCOPED_TRACE(line);
    EXPECT_THROW(serve::parse_request(parse_json(line)), ConfigError);
  }
  // The storable spellings still parse.
  EXPECT_EQ(serve::parse_request(
                parse_json(R"({"config": {"clusters": 8}, "seed": "7"})"))
                .seed,
            7u);
}

TEST(JsonMember, SweepConfigRejectsIntegersItCannotStore) {
  const char* configs[] = {
      R"({"total_nodes": 4294967552})",
      R"({"threads": 4294967297})",
      R"({"max_attempts": 4294967297})",
      R"({"axes": {"clusters": [4294967304]}})",
      R"({"backends": [{"type": "des", "messages": 1e300}]})",
  };
  for (const char* text : configs) {
    SCOPED_TRACE(text);
    EXPECT_THROW(runner::sweep_config_from_json(text), ConfigError);
  }
}

TEST(JsonMember, ChaosPlanRejectsASeedItCannotStore) {
  EXPECT_THROW(serve::fault_plan_from_json(parse_json(R"({"seed": 1e300})")),
               ConfigError);
  EXPECT_EQ(serve::fault_plan_from_json(parse_json(R"({"seed": 12})")).seed,
            12u);
}

TEST(JsonMember, JournalRejectsIntegersItCannotStore) {
  const std::string path = ::testing::TempDir() + "hmcs_json_member.jsonl";
  {
    runner::JournalWriter::Shape shape;
    shape.id = "members";
    shape.points = 2;
    shape.backend_names = {"analytic"};
    runner::JournalWriter writer(path, shape, /*append=*/false);
    writer.record(0, 5, runner::PointResult{});
  }
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  const std::string journal = text.str();
  ASSERT_NO_THROW(runner::load_sweep_journal(path));

  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"cell\":0", "\"cell\":-1"},
        std::pair<std::string, std::string>{"\"seed\":\"5\"",
                                            "\"seed\":\"-1\""}}) {
    SCOPED_TRACE(to);
    std::string hostile = journal;
    const std::size_t at = hostile.find(from);
    ASSERT_NE(at, std::string::npos);
    hostile.replace(at, from.size(), to);
    std::ofstream(path, std::ios::trunc) << hostile;
    EXPECT_THROW(runner::load_sweep_journal(path), ConfigError);
  }
}

TEST(JsonMember, TreeConfigRejectsIntegersItCannotStore) {
  // The reference behaviour: tree configs already rejected these.
  EXPECT_THROW(analytic::load_model_tree(R"({"tree": {
      "network": "fast-ethernet",
      "children": [{"processors": 4294967297}]}})"),
               ConfigError);
  EXPECT_THROW(analytic::load_model_tree(R"({"tree": {
      "network": "fast-ethernet",
      "children": [{"processors": 4}]},
      "switch_ports": 4294967320})"),
               ConfigError);
}

}  // namespace
