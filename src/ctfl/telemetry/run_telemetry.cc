#include "ctfl/telemetry/run_telemetry.h"

#include <sstream>

#include "ctfl/util/string_util.h"

namespace ctfl {
namespace telemetry {

std::string RunTelemetry::Summary() const {
  std::ostringstream out;
  const double total = total_seconds();
  const auto share = [total](double s) {
    return total > 0.0 ? 100.0 * s / total : 0.0;
  };
  out << "phase        seconds    cpu_s    share\n";
  out << StrFormat("train       %8.3f %8.3f   %5.1f%%\n", train_seconds,
                   train_cpu_seconds, share(train_seconds));
  out << StrFormat("upload      %8.3f %8.3f   %5.1f%%\n", upload_seconds,
                   upload_cpu_seconds, share(upload_seconds));
  out << StrFormat("trace       %8.3f %8.3f   %5.1f%%\n", trace_seconds,
                   trace_cpu_seconds, share(trace_seconds));
  out << StrFormat("allocate    %8.3f %8.3f   %5.1f%%\n", allocate_seconds,
                   allocate_cpu_seconds, share(allocate_seconds));
  out << StrFormat("total       %8.3f %8.3f\n", total, total_cpu_seconds());
  if (max_rss_kb > 0 || voluntary_ctx_switches > 0 ||
      involuntary_ctx_switches > 0) {
    out << StrFormat(
        "resources: max_rss=%lldkB ctx_switches=%lld voluntary, "
        "%lld involuntary\n",
        static_cast<long long>(max_rss_kb),
        static_cast<long long>(voluntary_ctx_switches),
        static_cast<long long>(involuntary_ctx_switches));
  }

  out << StrFormat(
      "train: %lld grafting steps, accuracy %.4f\n",
      static_cast<long long>(grafting_steps), train_accuracy);
  if (!rounds.empty()) {
    for (const RoundTelemetry& r : rounds) {
      out << StrFormat(
          "  round %-3d %7.3fs  mean local loss %.4f  (%d clients)",
          r.round, r.seconds, r.mean_local_loss, r.clients_trained);
      if (r.degraded || r.retries > 0) {
        out << StrFormat("  [degraded: %d dropped, %d retries]",
                         r.clients_dropped, r.retries);
      }
      out << "\n";
    }
    out << StrFormat(
        "faults: clients_dropped=%lld retries=%lld rounds_degraded=%d\n",
        static_cast<long long>(clients_dropped),
        static_cast<long long>(retries), rounds_degraded);
  } else if (!epochs.empty()) {
    // Epoch lines can be numerous; print first/last plus count.
    const EpochTelemetry& first = epochs.front();
    const EpochTelemetry& last = epochs.back();
    out << StrFormat(
        "  %zu central epochs: loss %.4f (epoch %d) -> %.4f (epoch %d)\n",
        epochs.size(), first.loss, first.epoch, last.loss, last.epoch);
  }
  out << StrFormat("rules: %d total, %d kept, %d pruned\n", rules_total,
                   rules_kept, rules_pruned);
  out << StrFormat(
      "trace: %lld keys, %lld tau_w checks, %lld related hits, "
      "%lld uncovered tests\n",
      static_cast<long long>(trace_keys),
      static_cast<long long>(tau_w_checks),
      static_cast<long long>(related_records),
      static_cast<long long>(uncovered_tests));
  if (records_scanned > 0 || blocks_pruned > 0) {
    out << StrFormat(
        "trace kernel: %lld records scanned, %lld blocks pruned, "
        "%lld exact fallbacks\n",
        static_cast<long long>(records_scanned),
        static_cast<long long>(blocks_pruned),
        static_cast<long long>(exact_fallbacks));
  }
  return out.str();
}

}  // namespace telemetry
}  // namespace ctfl
