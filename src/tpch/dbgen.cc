#include "tpch/dbgen.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"

namespace dyno {

namespace {

constexpr const char* kNationNames[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};

constexpr const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                      "HOUSEHOLD", "MACHINERY"};

constexpr const char* kStates[8] = {"CA", "NY", "TX", "WA",
                                    "IL", "MA", "FL", "OR"};

int64_t RandomDate(Rng* rng) {
  int64_t y = rng->UniformInt(1992, 1998);
  int64_t m = rng->UniformInt(1, 12);
  int64_t d = rng->UniformInt(1, 28);
  return y * 10000 + m * 100 + d;
}

}  // namespace

TpchSizes ComputeTpchSizes(double scale) {
  auto scaled = [scale](double base) {
    return static_cast<uint64_t>(std::max(1.0, base * scale));
  };
  TpchSizes sizes;
  sizes.region = 5;
  sizes.nation = 25;
  sizes.supplier = scaled(10000);
  sizes.customer = scaled(150000);
  sizes.part = scaled(200000);
  sizes.partsupp = sizes.part * 4;
  sizes.orders = scaled(1500000);
  sizes.lineitem_approx = sizes.orders * 4;
  return sizes;
}

Status GenerateTpch(Catalog* catalog, const TpchConfig& config) {
  TpchSizes sizes = ComputeTpchSizes(config.scale);
  Rng rng(config.seed);
  // Tables are written in this order and each is filled row by row, so the
  // RNG stream (and with it every row) is the same as generating them all
  // up front.
  auto write = [&](const char* name,
                   const std::function<void(TableWriter&)>& fill) {
    return catalog->WriteTable(name, config.split_bytes, fill);
  };

  DYNO_RETURN_IF_ERROR(write("region", [&](TableWriter& out) {
    for (uint64_t i = 0; i < sizes.region; ++i) {
      out.Append(MakeRow({
          {"r_regionkey", Value::Int(static_cast<int64_t>(i))},
          {"r_name", Value::String(kRegionNames[i % kNumRegions])},
          {"r_comment", Value::String(StrFormat("region %llu",
                                                (unsigned long long)i))},
      }));
    }
  }));

  // --- nation, plus the prefixed view copies nation1 / nation2 ---
  const std::pair<const char*, std::string> nation_tables[] = {
      {"nation", "n_"}, {"nation1", "n1_"}, {"nation2", "n2_"}};
  for (const auto& [name, prefix] : nation_tables) {
    DYNO_RETURN_IF_ERROR(write(name, [&](TableWriter& out) {
      for (uint64_t i = 0; i < sizes.nation; ++i) {
        out.Append(MakeRow(
            {{prefix + "nationkey", Value::Int(static_cast<int64_t>(i))},
             {prefix + "name", Value::String(kNationNames[i % 25])},
             {prefix + "regionkey",
              Value::Int(static_cast<int64_t>(i % sizes.region))}}));
      }
    }));
  }

  DYNO_RETURN_IF_ERROR(write("supplier", [&](TableWriter& out) {
    for (uint64_t i = 0; i < sizes.supplier; ++i) {
      out.Append(MakeRow({
          {"s_suppkey", Value::Int(static_cast<int64_t>(i))},
          {"s_name", Value::String(StrFormat("Supplier#%09llu",
                                             (unsigned long long)i))},
          {"s_address", Value::String(StrFormat("addr-%llu",
                                                (unsigned long long)(
                                                    rng.Next() % 100000)))},
          {"s_nationkey",
           Value::Int(
               rng.UniformInt(0, static_cast<int64_t>(sizes.nation) - 1))},
          {"s_acctbal", Value::Double(rng.NextDouble() * 11000.0 - 1000.0)},
      }));
    }
  }));

  DYNO_RETURN_IF_ERROR(write("customer", [&](TableWriter& out) {
    for (uint64_t i = 0; i < sizes.customer; ++i) {
      StructFields fields = {
          {"c_custkey", Value::Int(static_cast<int64_t>(i))},
          {"c_name", Value::String(StrFormat("Customer#%09llu",
                                             (unsigned long long)i))},
          {"c_nationkey",
           Value::Int(
               rng.UniformInt(0, static_cast<int64_t>(sizes.nation) - 1))},
          {"c_phone", Value::String(StrFormat("%02llu-%07llu",
                                              (unsigned long long)(i % 34 + 10),
                                              (unsigned long long)(
                                                  rng.Next() % 10000000)))},
          {"c_acctbal", Value::Double(rng.NextDouble() * 11000.0 - 1000.0)},
          {"c_mktsegment", Value::String(kSegments[rng.Uniform(5)])},
      };
      if (config.include_nested_addresses) {
        // Nested denormalized addresses (the data-model motif of the
        // paper's intro); the first entry is the primary address.
        ArrayElements addrs;
        uint64_t n_addrs = 1 + rng.Uniform(2);
        for (uint64_t a = 0; a < n_addrs; ++a) {
          addrs.push_back(Value::Struct({
              {"city", Value::String(StrFormat("city-%llu",
                                               (unsigned long long)(
                                                   rng.Next() % 500)))},
              {"state", Value::String(kStates[rng.Uniform(8)])},
              {"zip", Value::Int(rng.UniformInt(90000, 99999))},
          }));
        }
        fields.emplace_back("c_addr", Value::Array(std::move(addrs)));
      }
      out.Append(MakeRow(std::move(fields)));
    }
  }));

  DYNO_RETURN_IF_ERROR(write("part", [&](TableWriter& out) {
    for (uint64_t i = 0; i < sizes.part; ++i) {
      out.Append(MakeRow({
          {"p_partkey", Value::Int(static_cast<int64_t>(i))},
          {"p_name", Value::String(StrFormat("part-%llu",
                                             (unsigned long long)i))},
          {"p_mfgr", Value::String(StrFormat("Manufacturer#%llu",
                                             (unsigned long long)(i % 5 + 1)))},
          {"p_brand", Value::String(StrFormat(
                          "Brand#%llu", (unsigned long long)(i % 25 + 1)))},
          {"p_type",
           Value::String(kPartTypeNames[rng.Uniform(kNumPartTypes)])},
          {"p_size", Value::Int(rng.UniformInt(1, 50))},
          {"p_retailprice", Value::Double(900.0 + rng.NextDouble() * 1200.0)},
      }));
    }
  }));

  // --- partsupp: 4 suppliers per part ---
  DYNO_RETURN_IF_ERROR(write("partsupp", [&](TableWriter& out) {
    for (uint64_t p = 0; p < sizes.part; ++p) {
      for (int s = 0; s < 4; ++s) {
        uint64_t suppkey =
            (p + static_cast<uint64_t>(s) * (sizes.supplier / 4 + 1)) %
            sizes.supplier;
        out.Append(MakeRow({
            {"ps_partkey", Value::Int(static_cast<int64_t>(p))},
            {"ps_suppkey", Value::Int(static_cast<int64_t>(suppkey))},
            {"ps_availqty", Value::Int(rng.UniformInt(1, 9999))},
            {"ps_supplycost", Value::Double(1.0 + rng.NextDouble() * 999.0)},
        }));
      }
    }
  }));

  // --- orders (with the injected correlated channel / clerk-group pair) ---
  DYNO_RETURN_IF_ERROR(write("orders", [&](TableWriter& out) {
    for (uint64_t i = 0; i < sizes.orders; ++i) {
      int64_t channel = static_cast<int64_t>(rng.Uniform(kNumChannels));
      // o_clerk_group is a function of the channel with 95% fidelity: the
      // soft functional dependency CORDS would discover.
      int64_t clerk_group =
          rng.Bernoulli(0.95)
              ? channel
              : static_cast<int64_t>(rng.Uniform(kNumChannels));
      out.Append(MakeRow({
          {"o_orderkey", Value::Int(static_cast<int64_t>(i))},
          {"o_custkey",
           Value::Int(rng.UniformInt(
               0, static_cast<int64_t>(sizes.customer) - 1))},
          {"o_orderstatus", Value::String(rng.Bernoulli(0.5) ? "F" : "O")},
          {"o_totalprice",
           Value::Double(1000.0 + rng.NextDouble() * 400000.0)},
          {"o_orderdate", Value::Int(RandomDate(&rng))},
          {"o_orderpriority",
           Value::String(StrFormat("%llu-PRIORITY",
                                   (unsigned long long)(rng.Uniform(5) + 1)))},
          {"o_channel", Value::String(kChannelNames[channel])},
          {"o_clerk_group", Value::Int(clerk_group)},
          {"o_shippriority", Value::Int(0)},
      }));
    }
  }));

  // --- lineitem: 1..7 lines per order ---
  return write("lineitem", [&](TableWriter& out) {
    for (uint64_t o = 0; o < sizes.orders; ++o) {
      uint64_t lines = 1 + rng.Uniform(7);
      for (uint64_t l = 0; l < lines; ++l) {
        int64_t partkey =
            rng.UniformInt(0, static_cast<int64_t>(sizes.part) - 1);
        // Supplier consistent with partsupp's part->supplier mapping.
        int64_t s = static_cast<int64_t>(rng.Uniform(4));
        int64_t suppkey = static_cast<int64_t>(
            (static_cast<uint64_t>(partkey) +
             static_cast<uint64_t>(s) * (sizes.supplier / 4 + 1)) %
            sizes.supplier);
        int64_t shipdate = RandomDate(&rng);
        out.Append(MakeRow({
            {"l_orderkey", Value::Int(static_cast<int64_t>(o))},
            {"l_partkey", Value::Int(partkey)},
            {"l_suppkey", Value::Int(suppkey)},
            {"l_linenumber", Value::Int(static_cast<int64_t>(l))},
            {"l_quantity", Value::Int(rng.UniformInt(1, 50))},
            {"l_extendedprice",
             Value::Double(100.0 + rng.NextDouble() * 9000.0)},
            {"l_discount", Value::Double(rng.Uniform(11) / 100.0)},
            {"l_tax", Value::Double(rng.Uniform(9) / 100.0)},
            {"l_returnflag",
             Value::String(rng.Bernoulli(0.25)
                               ? "R"
                               : (rng.Bernoulli(0.5) ? "A" : "N"))},
            {"l_shipdate", Value::Int(shipdate)},
            {"l_shipmode",
             Value::String(rng.Bernoulli(0.5) ? "AIR" : "SHIP")},
        }));
      }
    }
  });
}

}  // namespace dyno
