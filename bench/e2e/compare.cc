#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>

#include "json.h"
#include "report.h"

namespace cadrl {
namespace e2e {

namespace {

constexpr int kMinPairs = 10;

struct MetricSpec {
  bool e2e = false;
  bool lower_is_better = true;
  double bound = 0.0;  // share of the base median (end-to-end only)
  size_t order = 0;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadSpecs(const std::string& path,
               std::map<std::string, MetricSpec>* specs) {
  std::string text;
  Json root;
  if (!ReadFile(path, &text) || !JsonParser(text).Parse(&root)) return false;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const Json* list = root.Find(section);
    if (list == nullptr) return false;
    for (const Json& m : list->items) {
      MetricSpec spec;
      spec.e2e = std::string(section) == "end_to_end";
      spec.lower_is_better = m.StringOr("better", "lower") == "lower";
      spec.bound = m.NumberOr("bound", 0.0);
      spec.order = specs->size();
      (*specs)[m.StringOr("name", "")] = spec;
    }
  }
  return true;
}

// (metric, workload) -> value of every e2e/layer line of one run's output.
using RunValues = std::map<std::pair<std::string, std::string>, double>;

bool LoadRun(const std::string& path, RunValues* out) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string line;
  while (std::getline(in, line)) {
    Json j;
    if (!JsonParser(line).Parse(&j)) continue;
    const std::string kind = j.StringOr("kind", "");
    const Json* value = j.Find("value");
    if ((kind != "e2e" && kind != "layer") || value == nullptr ||
        value->type != Json::Type::kNumber) {
      continue;
    }
    (*out)[{j.StringOr("metric", ""), j.StringOr("workload", "")}] =
        value->number;
  }
  return true;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

int RunCompare(const std::vector<std::string>& args) {
  std::vector<std::string> base_files, head_files;
  std::string bench_path = "BENCHMARK.json";
  bool head_side = false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--") {
      head_side = true;
    } else if (args[i] == "--benchmark" && i + 1 < args.size()) {
      bench_path = args[++i];
    } else {
      (head_side ? head_files : base_files).push_back(args[i]);
    }
  }
  if (base_files.empty() || head_files.empty()) {
    std::cerr << "usage: cadrl_e2e compare <base.jsonl...> -- "
                 "<head.jsonl...> [--benchmark BENCHMARK.json]\n";
    return 2;
  }
  std::map<std::string, MetricSpec> specs;
  if (!LoadSpecs(bench_path, &specs)) {
    std::cerr << "cannot read metric specs from " << bench_path << "\n";
    return 2;
  }
  const size_t pairs = std::min(base_files.size(), head_files.size());
  if (pairs < kMinPairs || base_files.size() != head_files.size()) {
    std::cerr << "need the same number of base and head runs, at least "
              << kMinPairs << " of each, run alternately\n";
    return 2;
  }
  std::vector<RunValues> base(pairs), head(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    if (!LoadRun(base_files[i], &base[i]) ||
        !LoadRun(head_files[i], &head[i])) {
      std::cerr << "cannot read " << base_files[i] << " or " << head_files[i]
                << "\n";
      return 2;
    }
  }

  // Rows in BENCHMARK.json order, then by workload.
  std::map<std::pair<size_t, std::string>, std::string> rows;
  for (const auto& [key, value] : base[0]) {
    const auto it = specs.find(key.first);
    if (it != specs.end()) rows[{it->second.order, key.second}] = key.first;
  }
  std::printf("%-40s %-14s %3s  %-30s %-30s %8s %5s  %s\n", "metric",
              "workload", "n", "base median [q1, q3]", "head median [q1, q3]",
              "change", "wins", "verdict");
  bool regression = false;
  for (const auto& [order_workload, metric] : rows) {
    const std::string& workload = order_workload.second;
    const MetricSpec& spec = specs.at(metric);
    std::vector<double> b, h;
    int wins = 0;
    for (size_t i = 0; i < pairs; ++i) {
      const auto bi = base[i].find({metric, workload});
      const auto hi = head[i].find({metric, workload});
      if (bi == base[i].end() || hi == head[i].end()) continue;
      b.push_back(bi->second);
      h.push_back(hi->second);
      const double gain = spec.lower_is_better ? bi->second - hi->second
                                               : hi->second - bi->second;
      if (gain > 0) ++wins;
    }
    if (b.size() < kMinPairs) continue;
    const Quartiles qb = QuartilesOf(b);
    const Quartiles qh = QuartilesOf(h);
    const double improvement = spec.lower_is_better ? qb.median - qh.median
                                                    : qh.median - qb.median;
    const double scale = std::fabs(qb.median);
    const double spread =
        scale > 0 ? std::max(qb.iqr() / scale,
                             qh.median != 0 ? qh.iqr() / std::fabs(qh.median)
                                            : 0.0)
                  : 0.0;
    const bool head_beats_all =
        spec.lower_is_better
            ? *std::max_element(h.begin(), h.end()) <
                  *std::min_element(b.begin(), b.end())
            : *std::min_element(h.begin(), h.end()) >
                  *std::max_element(b.begin(), b.end());
    std::string verdict = spec.e2e ? "unchanged" : "-";
    if (wins * 10 >= static_cast<int>(b.size()) * 9 &&
        improvement > qb.iqr()) {
      verdict = "gain";
    } else if (spec.e2e && -improvement > spec.bound * scale) {
      verdict = "regression";
      regression = true;
    } else if (spec.e2e && spread > spec.bound && !head_beats_all) {
      verdict = "unresolved";
    }
    const double change = scale > 0 ? (qh.median - qb.median) / scale : 0.0;
    std::printf("%-40s %-14s %3zu  %-30s %-30s %+7.2f%% %2d/%-2zu  %s\n",
                metric.c_str(), workload.c_str(), b.size(),
                (Fmt(qb.median) + " [" + Fmt(qb.q1) + ", " + Fmt(qb.q3) + "]")
                    .c_str(),
                (Fmt(qh.median) + " [" + Fmt(qh.q1) + ", " + Fmt(qh.q3) + "]")
                    .c_str(),
                change * 100, wins, b.size(), verdict.c_str());
  }
  return regression ? 1 : 0;
}

}  // namespace e2e
}  // namespace cadrl
