// Interactive DYNO shell: type SQL against the bundled TPC-H +
// restaurant datasets and watch pilot runs, plan choice and dynamic
// re-optimization happen per statement. Meta commands:
//
//   \tables                list catalog tables
//   \plan <sql>            show the chosen plan (after pilot runs) as a tree
//   \explain <sql>         run and print the full plan history
//   \q                     quit
//
//   ./build/examples/dyno_shell            # interactive
//   echo "SELECT ..." | ./build/examples/dyno_shell

#include <cstdio>
#include <iostream>
#include <string>

#include "dyno/driver.h"
#include "lang/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/restaurant.h"

namespace {

using namespace dyno;  // NOLINT — example brevity

class Shell {
 public:
  Shell()
      : catalog_(&dfs_), engine_(&dfs_, MakeCluster()), store_() {
    TpchConfig tpch;
    tpch.scale = 0.002;
    if (!GenerateTpch(&catalog_, tpch).ok()) std::abort();
    RestaurantConfig rest;
    if (!GenerateRestaurantData(&catalog_, rest).ok()) std::abort();
    udfs_["SENTANALYSIS"] = [](const std::vector<std::string>& cols) {
      return MakeHashFilterUdf("sentanalysis", cols, 0.3, 80.0);
    };
    udfs_["CHECKID"] = [](const std::vector<std::string>& cols) {
      return MakeHashFilterUdf("checkid", cols, 0.7, 60.0);
    };
  }

  static ClusterConfig MakeCluster() {
    ClusterConfig cluster;
    cluster.job_startup_ms = 5000;
    cluster.memory_per_task_bytes = 64 * 1024;
    return cluster;
  }

  DynoOptions Options() {
    DynoOptions options;
    options.cost.max_memory_bytes = MakeCluster().memory_per_task_bytes;
    options.pilot.k = 256;
    return options;
  }

  void ListTables() {
    for (const std::string& name : catalog_.TableNames()) {
      auto file = catalog_.OpenTable(name);
      if (file.ok()) {
        std::printf("  %-16s %8llu rows  %10llu bytes\n", name.c_str(),
                    (unsigned long long)(*file)->num_records(),
                    (unsigned long long)(*file)->num_bytes());
      }
    }
  }

  void PlanOnly(const std::string& sql) {
    auto query = ParseQuery(sql, udfs_);
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      return;
    }
    // Run just the pilot + first optimization by executing with a driver
    // and reading plan_history[0] — cheap at this scale.
    DynoDriver driver(&engine_, &catalog_, &store_, Options());
    auto report = driver.Execute(*query);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return;
    }
    if (report->plan_history.empty()) {
      std::printf("(single-scan query, no join plan)\n");
      return;
    }
    std::printf("%s", report->plan_history.front().plan_tree.c_str());
  }

  void Run(const std::string& sql, bool explain) {
    auto query = ParseQuery(sql, udfs_);
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      return;
    }
    DynoDriver driver(&engine_, &catalog_, &store_, Options());
    auto report = driver.Execute(*query);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return;
    }
    if (explain) {
      for (size_t i = 0; i < report->plan_history.size(); ++i) {
        std::printf("-- plan%zu%s --\n%s", i + 1,
                    report->plan_history[i].plan_changed ? " (changed)" : "",
                    report->plan_history[i].plan_tree.c_str());
      }
    }
    auto rows = ReadAllRows(*report->result);
    if (rows.ok()) {
      size_t shown = 0;
      for (const Value& row : *rows) {
        if (shown++ >= 20) {
          std::printf("  ... (%zu more)\n", rows->size() - 20);
          break;
        }
        std::printf("  %s\n", row.ToString().c_str());
      }
    }
    std::printf("(%llu rows, %s simulated, %d jobs, %d re-optimizations)\n",
                (unsigned long long)report->result_records,
                FormatSimMillis(report->total_ms).c_str(), report->jobs_run,
                report->optimizer_calls - 1);
  }

  int Loop() {
    std::string line;
    std::printf("DYNO shell — \\tables, \\plan <sql>, \\explain <sql>, "
                "\\q to quit\n");
    while (true) {
      std::printf("dyno> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      if (line.empty()) continue;
      if (line == "\\q" || line == "\\quit") break;
      if (line == "\\tables") {
        ListTables();
      } else if (line.rfind("\\plan ", 0) == 0) {
        PlanOnly(line.substr(6));
      } else if (line.rfind("\\explain ", 0) == 0) {
        Run(line.substr(9), /*explain=*/true);
      } else {
        Run(line, /*explain=*/false);
      }
    }
    return 0;
  }

 private:
  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
  StatsStore store_;
  UdfRegistry udfs_;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Loop();
}
