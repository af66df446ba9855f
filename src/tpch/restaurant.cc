#include "tpch/restaurant.h"

#include "common/random.h"
#include "common/string_util.h"
#include "tpch/queries.h"

namespace dyno {

namespace {

constexpr const char* kStates[6] = {"CA", "NY", "TX", "WA", "IL", "MA"};

}  // namespace

Status GenerateRestaurantData(Catalog* catalog,
                              const RestaurantConfig& config) {
  Rng rng(config.seed);

  DYNO_RETURN_IF_ERROR(catalog->WriteTable(
      "restaurant", config.split_bytes, [&](TableWriter& out) {
        for (uint64_t i = 0; i < config.num_restaurants; ++i) {
          // ~8% of restaurants are in Palo Alto's 94301, and 94301 implies
          // CA — the paper's correlated pair: P(zip)·P(state) badly
          // underestimates P(zip AND state).
          bool palo_alto = rng.Bernoulli(0.08);
          int64_t zip = palo_alto ? 94301 : rng.UniformInt(10000, 99999);
          const char* state = palo_alto ? "CA" : kStates[rng.Uniform(6)];
          ArrayElements addrs;
          addrs.push_back(Value::Struct({
              {"city", Value::String(
                           palo_alto ? "Palo Alto"
                                     : StrFormat("city-%llu",
                                                 (unsigned long long)(
                                                     rng.Next() % 300)))},
              {"state", Value::String(state)},
              {"zip", Value::Int(zip)},
          }));
          if (rng.Bernoulli(0.3)) {
            addrs.push_back(Value::Struct({
                {"city", Value::String("secondary")},
                {"state", Value::String(kStates[rng.Uniform(6)])},
                {"zip", Value::Int(rng.UniformInt(10000, 99999))},
            }));
          }
          out.Append(MakeRow({
              {"rs_id", Value::Int(static_cast<int64_t>(i))},
              {"rs_name", Value::String(StrFormat("restaurant-%llu",
                                                  (unsigned long long)i))},
              {"rs_addr", Value::Array(std::move(addrs))},
          }));
        }
      }));

  DYNO_RETURN_IF_ERROR(catalog->WriteTable(
      "review", config.split_bytes, [&](TableWriter& out) {
        for (uint64_t i = 0; i < config.num_reviews; ++i) {
          out.Append(MakeRow({
              {"rv_id", Value::Int(static_cast<int64_t>(i))},
              {"rv_rsid",
               Value::Int(rng.UniformInt(
                   0, static_cast<int64_t>(config.num_restaurants) - 1))},
              {"rv_tid",
               Value::Int(rng.UniformInt(
                   0, static_cast<int64_t>(config.num_tweets) - 1))},
              {"rv_stars", Value::Int(rng.UniformInt(1, 5))},
              {"rv_text", Value::String(StrFormat("review text %llu",
                                                  (unsigned long long)i))},
          }));
        }
      }));

  return catalog->WriteTable(
      "tweet", config.split_bytes, [&](TableWriter& out) {
        for (uint64_t i = 0; i < config.num_tweets; ++i) {
          out.Append(MakeRow({
              {"t_id", Value::Int(static_cast<int64_t>(i))},
              {"t_user", Value::String(StrFormat("user-%llu",
                                                 (unsigned long long)(
                                                     rng.Next() % 5000)))},
              {"t_text", Value::String(StrFormat("tweet %llu",
                                                 (unsigned long long)i))},
          }));
        }
      });
}

Query MakeRestaurantQuery() {
  Query q;
  JoinBlock& b = q.join_block;
  b.tables = {{"restaurant", "rs"}, {"review", "rv"}, {"tweet", "t"}};
  b.edges = {{"rs", "rs_id", "rv", "rv_rsid"},
             {"rv", "rv_tid", "t", "t_id"}};
  b.predicates = {
      // Correlated nested-path predicates on the primary address.
      {Eq(Path({PathStep::Field("rs_addr"), PathStep::Index(0),
                PathStep::Field("zip")}),
          LitInt(94301)),
       {"rs"}},
      {Eq(Path({PathStep::Field("rs_addr"), PathStep::Index(0),
                PathStep::Field("state")}),
          LitString("CA")),
       {"rs"}},
      // Sentiment analysis over the review (expensive local UDF).
      {MakeHashFilterUdf("sentanalysis", {"rv_id"}, 0.3, /*cpu_cost=*/80.0),
       {"rv"}},
      // Identity check across review and tweet (non-local UDF).
      {MakeHashFilterUdf("checkid", {"rv_id", "t_id"}, 0.7,
                         /*cpu_cost=*/60.0),
       {"rv", "t"}},
  };
  b.output_columns = {"rs_name"};
  return q;
}

}  // namespace dyno
