// JSON writer and the analytic-type serialisation.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "hmcs/analytic/latency_model.hpp"
#include "hmcs/analytic/scenario.hpp"
#include "hmcs/analytic/serialize.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;

TEST(Json, FlatObject) {
  JsonWriter json;
  json.begin_object();
  json.key("a").value(std::int64_t{1});
  json.key("b").value("two");
  json.key("c").value(true);
  json.key("d").null();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"a":1,"b":"two","c":true,"d":null})");
}

TEST(Json, NestedContainers) {
  JsonWriter json;
  json.begin_object();
  json.key("series").begin_array().value(1.5).value(2.5).end_array();
  json.key("inner").begin_object().key("x").value(std::uint64_t{7}).end_object();
  json.end_object();
  EXPECT_EQ(json.str(), R"({"series":[1.5,2.5],"inner":{"x":7}})");
}

TEST(Json, EscapesStrings) {
  JsonWriter json;
  json.begin_object();
  json.key("msg").value("line\n\"quoted\"\\\t\x01");
  json.end_object();
  EXPECT_EQ(json.str(), "{\"msg\":\"line\\n\\\"quoted\\\"\\\\\\t\\u0001\"}");
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null]");
}

TEST(Json, DoubleRoundTripsPrecision) {
  JsonWriter json;
  json.value(0.1 + 0.2);
  EXPECT_EQ(std::stod(json.str()), 0.1 + 0.2);
}

TEST(Json, RootScalarsAllowed) {
  JsonWriter json;
  json.value("hello");
  EXPECT_EQ(json.str(), "\"hello\"");
}

TEST(Json, MisuseIsCaught) {
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.value(1.0), LogicError);  // value without key
  }
  {
    JsonWriter json;
    json.begin_object();
    json.key("a");
    EXPECT_THROW(json.key("b"), LogicError);  // two keys in a row
  }
  {
    JsonWriter json;
    json.begin_array();
    EXPECT_THROW(json.end_object(), LogicError);  // mismatched close
  }
  {
    JsonWriter json;
    json.begin_object();
    EXPECT_THROW(json.str(), LogicError);  // incomplete document
  }
  {
    JsonWriter json;
    json.value(1.0);
    EXPECT_THROW(json.value(2.0), LogicError);  // two roots
  }
  {
    JsonWriter json;
    EXPECT_THROW(json.key("a"), LogicError);  // key at root
  }
}

TEST(Json, EndLineWritesJsonLinesInOneBuffer) {
  JsonWriter json;
  json.begin_object().key("a").value(std::uint64_t{1}).end_object().end_line();
  json.value("two").end_line();
  json.begin_array().value(3.5).end_array().end_line();
  EXPECT_EQ(json.str(), "{\"a\":1}\n\"two\"\n[3.5]\n");
  json.value(true);
  EXPECT_THROW(json.value(false), LogicError);  // two roots on one line
  JsonWriter open;
  EXPECT_THROW(open.end_line(), LogicError);  // nothing to end
  open.begin_array();
  EXPECT_THROW(open.end_line(), LogicError);  // inside a container
}

TEST(Json, MovedOutTextLeavesAnEmptyWriter) {
  JsonWriter json;
  json.begin_object().key("k").value("v").end_object();
  const std::string copy = json.str();
  const std::string moved = std::move(json).str();
  EXPECT_EQ(moved, copy);
  EXPECT_EQ(json.buffered(), 0u);
  EXPECT_THROW(json.str(), LogicError);
  json.value(1.0);  // a fresh document
  EXPECT_EQ(json.str(), "1");
}

TEST(Json, FlushedPiecesConcatenateToTheWholeDocument) {
  // Flushing at every step, including straight after an opening
  // bracket, a key and a value, must not change a separator.
  const auto build = [](JsonWriter& json, std::ostringstream* out) {
    const auto step = [&] {
      if (out != nullptr) json.flush_to(*out);
    };
    json.begin_object();
    step();
    for (int i = 0; i < 4; ++i) {
      std::string name = "k";  // gcc 12's -Wrestrict misfires on "k" + ...
      name += std::to_string(i);
      json.key(name);
      step();
      json.begin_array();
      step();
      for (int j = 0; j < i; ++j) {
        json.value(static_cast<std::int64_t>(j));
        step();
      }
      json.end_array();
      step();
    }
    json.key("empty").begin_object().end_object();
    step();
    json.end_object();
  };
  JsonWriter whole;
  build(whole, nullptr);
  JsonWriter streamed;
  std::ostringstream out;
  build(streamed, &out);
  EXPECT_EQ(streamed.buffered(), 2u);  // the kept byte and the last brace
  out << std::move(streamed).str();
  EXPECT_EQ(out.str(), whole.str());
}

TEST(Serialize, SystemConfigDocument) {
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, 8,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0);
  const std::string json = analytic::to_json(config);
  EXPECT_NE(json.find("\"clusters\":8"), std::string::npos);
  EXPECT_NE(json.find("\"Gigabit Ethernet\""), std::string::npos);
  EXPECT_NE(json.find("\"message_bytes\":1024"), std::string::npos);
  EXPECT_NE(json.find("fat-tree"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Serialize, PredictionDocumentCarriesCenters) {
  const analytic::SystemConfig config = analytic::paper_scenario(
      analytic::HeterogeneityCase::kCase1, 8,
      analytic::NetworkArchitecture::kNonBlocking, 1024.0);
  const std::string json =
      analytic::to_json(analytic::predict_latency(config));
  EXPECT_NE(json.find("\"mean_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"icn1\""), std::string::npos);
  EXPECT_NE(json.find("\"icn2\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

TEST(Serialize, HeteroDocuments) {
  // A heterogeneous depth-2 tree (the Cluster-of-Clusters shape) and its
  // prediction serialise through the recursive schema.
  using analytic::ModelNode;
  analytic::ModelTree tree;
  tree.root = ModelNode::internal(
      analytic::fast_ethernet(),
      {ModelNode::internal(analytic::gigabit_ethernet(),
                           analytic::fast_ethernet(),
                           {ModelNode::leaf(8, 1e-4)}),
       ModelNode::internal(analytic::fast_ethernet(),
                           analytic::fast_ethernet(),
                           {ModelNode::leaf(4, 2e-4)})});
  tree.switch_params = {24, 10.0};
  tree.message_bytes = 512.0;

  const std::string config_json = analytic::to_json(tree);
  EXPECT_NE(config_json.find("\"children\":[{\"network\""),
            std::string::npos);

  const std::string prediction_json =
      analytic::to_json(analytic::predict_model_tree(tree));
  EXPECT_NE(prediction_json.find("\"per_leaf_latency_us\":["),
            std::string::npos);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, ObjectKeepsDocumentOrder) {
  const JsonValue doc = parse_json(R"({"b":1,"a":[2,3],"c":{"d":null}})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "b");
  EXPECT_EQ(doc.members[1].first, "a");
  EXPECT_DOUBLE_EQ(doc.at("a").at(1).as_number(), 3.0);
  EXPECT_TRUE(doc.at("c").at("d").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), ConfigError);
}

TEST(JsonParse, StringEscapes) {
  const JsonValue doc = parse_json(R"("a\n\t\"\\\/Aé")");
  EXPECT_EQ(doc.as_string(), "a\n\t\"\\/A\xC3\xA9");
  // \u escapes decode to UTF-8.
  EXPECT_EQ(parse_json("\"\\u00e9A\"").as_string(), "\xC3\xA9\x41");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter json;
  json.begin_object();
  json.key("series").begin_array().value(1.5).value(2.5).end_array();
  json.key("name").value("line\n\"quoted\"");
  json.key("flag").value(true);
  json.end_object();
  const JsonValue doc = parse_json(json.str());
  EXPECT_DOUBLE_EQ(doc.at("series").at(0).as_number(), 1.5);
  EXPECT_EQ(doc.at("name").as_string(), "line\n\"quoted\"");
  EXPECT_TRUE(doc.at("flag").as_bool());
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), ConfigError);
  EXPECT_THROW(parse_json("{"), ConfigError);
  EXPECT_THROW(parse_json("[1,]"), ConfigError);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), ConfigError);
  EXPECT_THROW(parse_json("{\"a\":1,\"a\":2}"), ConfigError);  // dup key
  EXPECT_THROW(parse_json("\"unterminated"), ConfigError);
  EXPECT_THROW(parse_json("01"), ConfigError);
  EXPECT_THROW(parse_json("nul"), ConfigError);
}

TEST(JsonParse, RejectsOutOfRangeNumbers) {
  // strtod overflow must be a positioned parse error, not a silent inf
  // poisoning configs and journal resume.
  EXPECT_THROW(parse_json("1e999"), ConfigError);
  EXPECT_THROW(parse_json("-1e999"), ConfigError);
  EXPECT_THROW(parse_json("{\"rate\": 1e400}"), ConfigError);
  EXPECT_THROW(parse_json("[1.0, 2.0, 1e999]"), ConfigError);
  try {
    parse_json("{\"rate\": 1e400}");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("out of range"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("offset 9"), std::string::npos);
  }
}

TEST(JsonParse, UnderflowIsNotAnError) {
  // Subnormal/zero underflow is a faithful nearest representation; only
  // overflow is rejected.
  EXPECT_DOUBLE_EQ(parse_json("1e-999").as_number(), 0.0);
  EXPECT_NEAR(parse_json("4.9e-324").as_number(), 4.9e-324, 1e-323);
  EXPECT_DOUBLE_EQ(parse_json("1.7976931348623157e308").as_number(),
                   1.7976931348623157e308);
}

TEST(JsonParse, TypeMismatchAccessorsThrow) {
  const JsonValue doc = parse_json("[1]");
  EXPECT_THROW(doc.as_number(), ConfigError);
  EXPECT_THROW(doc.at("key"), ConfigError);
  EXPECT_THROW(doc.at(5), ConfigError);
}

TEST(JsonParse, DepthLimitGuardsRecursion) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += '[';
  for (int i = 0; i < 400; ++i) deep += ']';
  EXPECT_THROW(parse_json(deep), ConfigError);
}

}  // namespace
