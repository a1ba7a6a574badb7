#include "layers.hpp"

#include "backend/backend.hpp"
#include "core/compiled.hpp"

namespace perfbench {

using namespace qfa;

std::vector<double> replay_core(const serve::Generation& generation,
                                std::span<const cbr::Request> requests,
                                const cbr::RetrievalOptions& options, std::size_t passes,
                                Tracer& tracer, Report& report) {
    const cbr::Retriever retriever(generation.case_base, generation.bounds,
                                   generation.compiled);
    const backend::RetrievalBackend* cpu = backend::registry().find("cpu-simd");
    const backend::ShardContext ctx{&generation.case_base, &generation.bounds,
                                    &generation.compiled, generation.epoch};
    const std::unique_ptr<backend::BackendScratch> be_scratch = cpu->make_scratch();
    const cbr::CompiledStats shape = generation.compiled.stats();
    const std::uint32_t retrieve_name = tracer.name("core.retrieve", Layer::core);
    const std::uint32_t score_name = tracer.name("backend.score", Layer::backend);
    constexpr std::uint64_t kReplayOps = std::uint64_t{1} << 48;  // op ids apart from traffic

    cbr::RetrievalScratch scratch;
    std::vector<std::vector<double>> per_request(requests.size());
    double rows = 0.0, rescored = 0.0, bytes = 0.0, two_phase = 0.0;
    std::uint64_t calls = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const TimePoint t0 = Clock::now();
            const cbr::RetrievalResult result =
                retriever.retrieve_compiled(requests[i], options, &scratch);
            const TimePoint t1 = Clock::now();
            tracer.record(retrieve_name, t0, t1, kReplayOps + i);
            per_request[i].push_back(us_between(t0, t1));

            // Bytes streamed per tier, from the plan shape: a two-phase
            // call scans every row on the Q8 tier and rescores the
            // survivors on the exact tier; otherwise every row is exact.
            const auto constraints = static_cast<double>(requests[i].size());
            const auto considered = static_cast<double>(result.impls_considered);
            const cbr::TwoPhaseStats& tp = scratch.two_phase;
            rows += considered;
            rescored += static_cast<double>(tp.rescored);
            two_phase += tp.engaged ? 1.0 : 0.0;
            bytes += tp.engaged ? considered * constraints * shape.q8_bytes_per_row() +
                                      static_cast<double>(tp.rescored) * constraints *
                                          shape.exact_bytes_per_row()
                                : considered * constraints * shape.exact_bytes_per_row();
            ++calls;

            const TimePoint b0 = Clock::now();
            const cbr::RetrievalResult scored = cpu->score(ctx, requests[i], options, *be_scratch);
            const TimePoint b1 = Clock::now();
            tracer.record(score_name, b0, b1, kReplayOps + i);
            if (!cbr::identical_results(scored, result)) {
                report.fail("cpu-simd score() differs from retrieve_compiled");
                return {};
            }
        }
    }

    Values& out = report.values;
    std::vector<double>& retrieve_us = tracer.durations(retrieve_name);
    const auto n = static_cast<double>(std::max<std::uint64_t>(calls, 1));
    out["core.retrieve_us_p50"] = percentile(retrieve_us, 0.50);
    out["core.retrieve_us_p99"] = percentile(retrieve_us, 0.99);
    out["core.rows_per_op"] = rows / n;
    out["core.rescored_per_op"] = rescored / n;
    out["core.two_phase_frac"] = two_phase / n;
    out["core.bytes_per_op"] = bytes / n;
    out["backend.score_us_p50"] = percentile(tracer.durations(score_name), 0.50);

    std::vector<double> medians;
    medians.reserve(per_request.size());
    for (std::vector<double>& samples : per_request) {
        medians.push_back(percentile(samples, 0.5));
    }
    return medians;
}

void time_compile(const serve::Generation& generation, std::size_t repeats, Tracer& tracer,
                  Values& out) {
    const std::uint32_t compile_name = tracer.name("core.compile", Layer::core);
    std::vector<double> seconds;
    for (std::size_t k = 0; k < repeats; ++k) {
        const TimePoint t0 = Clock::now();
        const cbr::CompiledCaseBase compiled(generation.case_base, generation.bounds);
        const TimePoint t1 = Clock::now();
        tracer.record(compile_name, t0, t1, k);
        seconds.push_back(s_between(t0, t1));
    }
    out["core.compile_s"] = median(seconds);
}

void engine_layer_values(const serve::EngineStats& stats, Values& out) {
    std::uint64_t shard_max = 0;
    for (const std::uint64_t served : stats.shard_served) {
        shard_max = std::max(shard_max, served);
    }
    const std::uint64_t attempts = stats.submitted + stats.rejected;
    out["serve.shard_max_frac"] =
        stats.served == 0 ? 0.0 : static_cast<double>(shard_max) / static_cast<double>(stats.served);
    out["serve.refused_frac"] =
        attempts == 0 ? 0.0
                      : static_cast<double>(stats.rejected + stats.expired + stats.shed) /
                            static_cast<double>(attempts);
    out["serve.cow_shared_frac"] =
        stats.cow_plans_published == 0
            ? 0.0
            : static_cast<double>(stats.cow_plans_shared) /
                  static_cast<double>(stats.cow_plans_published);
    double retries = 0.0, failovers = 0.0, fallbacks = 0.0;
    for (const auto& [name, slice] : stats.backends) {
        retries += static_cast<double>(slice.retries);
        failovers += static_cast<double>(slice.failovers);
        fallbacks += static_cast<double>(slice.fallbacks);
    }
    out["backend.retries"] = retries;
    out["backend.failovers"] = failovers;
    out["backend.fallbacks"] = fallbacks;
}

void hash_case_base(const cbr::CaseBase& cb, TapeHash& hash) {
    for (const cbr::FunctionType& type : cb.types()) {
        hash.value(type.id.value());
        for (const cbr::Implementation& impl : type.impls) {
            hash.value(impl.id.value());
            hash.value(static_cast<std::uint8_t>(impl.target));
            for (const cbr::Attribute& attr : impl.attributes) {
                hash.value(attr.id.value());
                hash.value(attr.value);
            }
            hash.value(impl.meta.config_bytes);
            hash.value(impl.meta.demand.clb_slices);
            hash.value(impl.meta.demand.brams);
            hash.value(impl.meta.demand.multipliers);
            hash.value(impl.meta.demand.cpu_load_pct);
            hash.value(impl.meta.demand.dsp_load_pct);
            hash.value(impl.meta.static_power_mw);
            hash.value(impl.meta.dynamic_power_mw);
        }
    }
}

void hash_request(const cbr::Request& request, TapeHash& hash) {
    hash.value(request.type().value());
    for (const cbr::RequestAttribute& constraint : request.constraints()) {
        hash.value(constraint.id.value());
        hash.value(constraint.value);
        hash.value(constraint.weight);
    }
}

}  // namespace perfbench
