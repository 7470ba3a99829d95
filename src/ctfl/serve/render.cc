#include "ctfl/serve/render.h"

#include "ctfl/util/string_util.h"

namespace ctfl {
namespace serve {
namespace {

void AppendRuleStats(const char* header,
                     const std::vector<store::RuleStat>& stats,
                     std::string* out) {
  if (stats.empty()) return;
  out->append(StrFormat("  %s\n", header));
  for (const store::RuleStat& stat : stats) {
    out->append(StrFormat("    r%-4d f=%-10.4f %s\n", stat.rule,
                          stat.frequency, stat.text.c_str()));
  }
}

}  // namespace

std::string RenderEvaluation(const store::QueryReport& report,
                             double origin_tau_w,
                             int origin_delta,
                             const std::vector<double>& origin_micro,
                             const std::vector<double>& origin_macro) {
  std::string out;
  out.append(
      StrFormat("scores at tau_w=%.4f delta=%d (no retraining, no "
                "retracing):\n",
                report.tau_w, report.delta));
  out.append("participant        records    micro     macro\n");
  for (size_t p = 0; p < report.participants.size(); ++p) {
    out.append(StrFormat("%-17s %8zu   %.6f  %.6f\n",
                         report.participants[p].name.c_str(),
                         report.participants[p].data_size, report.micro[p],
                         report.macro[p]));
  }
  const bool origin_params =
      report.tau_w == origin_tau_w && report.delta == origin_delta;
  if (origin_params && !origin_micro.empty()) {
    bool identical = origin_macro.size() == report.macro.size();
    for (size_t p = 0; identical && p < report.micro.size(); ++p) {
      identical = origin_micro[p] == report.micro[p] &&
                  origin_macro[p] == report.macro[p];
    }
    out.append(StrFormat("reproduction vs originating run: %s\n",
                         identical ? "bit-identical" : "MISMATCH"));
  }
  out.append(StrFormat(
      "\nglobal accuracy %.4f, matched %.4f; %zu uncovered tests\n"
      "lookup cost: %lld keys, %lld tau_w checks\n"
      "trace kernel: %lld records scanned, %lld blocks pruned, "
      "%lld exact fallbacks\n",
      report.global_accuracy, report.matched_accuracy, report.uncovered_tests,
      static_cast<long long>(report.keys),
      static_cast<long long>(report.tau_w_checks),
      static_cast<long long>(report.records_scanned),
      static_cast<long long>(report.blocks_pruned),
      static_cast<long long>(report.exact_fallbacks)));
  AppendRuleStats("uncovered scenarios (collect data here):",
                  report.uncovered_rules, &out);
  for (const store::ParticipantSummary& summary : report.participants) {
    out.append(StrFormat("\n%s (%zu records, useless ratio %.3f)\n",
                         summary.name.c_str(), summary.data_size,
                         summary.useless_ratio));
    AppendRuleStats("beneficial rules:", summary.beneficial, &out);
    AppendRuleStats("harmful rules:", summary.harmful, &out);
  }
  return out;
}

std::string RenderScoreRow(const std::string& name, size_t records,
                           double micro, double macro) {
  return StrFormat("%-11s %8zu   %.4f    %.4f\n", name.c_str(), records,
                   micro, macro);
}

std::string RenderRelatedHeader() { return "\nrelated-record lookups:\n"; }

std::string RenderRelatedLookup(size_t index,
                                const store::RelatedResult& related,
                                const std::vector<std::string>& names) {
  std::string out = StrFormat(
      "instance %zu: predicted=%d support=%d related=%zu "
      "(checked %lld of %lld, exact fallbacks %lld)\n",
      index, related.predicted, related.support_size, related.total_related,
      static_cast<long long>(related.tau_w_checks),
      static_cast<long long>(related.bucket_size),
      static_cast<long long>(related.exact_fallbacks));
  for (const store::RecordRef& ref : related.records) {
    const std::string name =
        ref.participant >= 0 && ref.participant < static_cast<int>(names.size())
            ? names[ref.participant]
            : StrFormat("P%d", ref.participant);
    out.append(StrFormat("    %s record %d\n", name.c_str(),
                         ref.local_index));
  }
  return out;
}

}  // namespace serve
}  // namespace ctfl
