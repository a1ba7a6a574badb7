// qfa_perfbench: the repository's benchmark program.
//
//   qfa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--tiny] [--trace-out <path>]
//
// Prints provenance and informational lines, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// Exits 1 when a self-check fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (the benchmark's own test checks both ways).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},   {"p50_us", "us"},
    {"p99_us", "us"},          {"ok_frac", "frac"},    {"slo_met_frac", "frac"},
    {"grant_frac", "frac"},    {"similarity_mean", "S"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.submit_us_p50", "us"},
    {"serve.queue_service_us_p50", "us"},
    {"serve.queue_service_us_p99", "us"},
    {"serve.overhead_us_p50", "us"},
    {"serve.resolve_us_p50", "us"},
    {"serve.shard_max_frac", "frac"},
    {"serve.refused_frac", "frac"},
    {"serve.retain_us_p50", "us"},
    {"serve.retain_us_p99", "us"},
    {"serve.remove_us_p50", "us"},
    {"serve.cow_shared_frac", "frac"},
    {"backend.score_us_p50", "us"},
    {"backend.retries", "count"},
    {"backend.failovers", "count"},
    {"backend.fallbacks", "count"},
    {"core.retrieve_us_p50", "us"},
    {"core.retrieve_us_p99", "us"},
    {"core.rows_per_op", "rows"},
    {"core.two_phase_frac", "frac"},
    {"core.rescored_per_op", "rows"},
    {"core.bytes_per_op", "B"},
    {"core.compile_s", "s"},
    {"core.patch_us_p50", "us"},
    {"alloc.negotiate_us_p50", "us"},
    {"alloc.negotiate_us_p99", "us"},
    {"alloc.release_us_p50", "us"},
    {"alloc.rebind_us_p50", "us"},
    {"alloc.bypass_hit_frac", "frac"},
    {"alloc.retrievals_per_request", "count"},
    {"alloc.counter_offer_frac", "frac"},
    {"alloc.rounds_mean", "rounds"},
    {"alloc.reject_frac", "frac"},
    {"sysmodel.events_us_per_op", "us"},
    {"sysmodel.launches", "count"},
    {"sysmodel.preemptions", "count"},
    {"sysmodel.repository_misses", "count"},
    {"sysmodel.activation_us_mean", "sim_us"},
    {"trace.overhead_frac", "frac"},
};

int usage(const std::string& why) {
    std::cerr << "qfa_perfbench: " << why
              << "\nusage: qfa_perfbench --workload serve_small|scan_large|alloc_churn"
                 " --seed N --seconds S --trace 0|1 [--tiny] [--trace-out PATH]\n";
    return 2;
}

std::string json_number(double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (arg == "--workload" && has_value) {
                options.workload = argv[++i];
            } else if (arg == "--seed" && has_value) {
                options.seed = std::stoull(argv[++i]);
            } else if (arg == "--seconds" && has_value) {
                options.seconds = std::stod(argv[++i]);
            } else if (arg == "--trace" && has_value) {
                options.trace = std::string(argv[++i]) == "1";
            } else if (arg == "--trace-out" && has_value) {
                options.trace_out = argv[++i];
            } else if (arg == "--tiny") {
                options.tiny = true;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + arg);
        }
    }
    if (!(options.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }

    Report report;
    try {
        if (options.workload == "serve_small" || options.workload == "scan_large") {
            report = perfbench::run_serve_workload(options);
        } else if (options.workload == "alloc_churn") {
            report = perfbench::run_alloc_churn(options);
        } else {
            return usage("unknown workload '" + options.workload + "'");
        }
    } catch (const std::exception& error) {
        std::cerr << "qfa_perfbench: " << options.workload << " failed: " << error.what() << "\n";
        return 1;
    }

    std::cout << "# workload=" << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0) << "\n";
    for (const std::string& line : perfbench::provenance()) {
        std::cout << "# " << line << "\n";
    }
    for (const std::string& line : report.notes) {
        std::cout << "# " << line << "\n";
    }

    std::set<std::string> known;
    std::string metrics;
    const auto emit = [&](const MetricSpec& spec) {
        known.insert(spec.name);
        const auto found = report.values.find(spec.name);
        const double value = found == report.values.end() ? 0.0 : found->second;
        if (!std::isfinite(value)) {
            report.fail(std::string(spec.name) + " is not finite");
        }
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + spec.name +
                   "\": {\"value\": " + json_number(std::isfinite(value) ? value : 0.0) +
                   ", \"unit\": \"" + spec.unit + "\"}";
    };
    if (options.trace) {
        for (const MetricSpec& spec : kPerLayer) {
            emit(spec);
        }
    } else {
        for (const MetricSpec& spec : kEndToEnd) {
            emit(spec);
        }
    }
    for (const auto& [name, value] : report.values) {
        const bool end_to_end = name.find('.') == std::string::npos;
        if (end_to_end != !options.trace) {
            continue;  // the other kind's values (e.g. engine counters) are not printed
        }
        if (known.count(name) == 0) {
            report.fail("metric " + name + " is missing from the catalogue");
        }
    }
    for (const std::string& line : report.notes) {
        if (line.rfind("SELF-CHECK FAILED", 0) == 0) {
            std::cerr << line << "\n";
        }
    }
    if (!report.correct) {
        std::cerr << "qfa_perfbench: self-check failed; no result printed\n";
        return 1;
    }
    std::cout << "{\"correct\": true, \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics << "}}"
              << std::endl;
    return 0;
}
