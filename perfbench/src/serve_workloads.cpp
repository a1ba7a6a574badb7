// The serving workloads: serve_small and scan_large, both closed loops
// against a 1-shard serve::Engine.
//
// One client keeps kOutstanding retrievals in flight and sends the next,
// with Engine::try_submit, when the oldest resolves.  Latency runs from
// the call to the engine's completion stamp.  The timed phase replays one
// seeded tape of sends, episode after episode, and reports the fastest
// replay of each short stretch of it (see Replays).
//
// Every completed retrieval is checked against the single-threaded
// Retriever::retrieve_compiled result on the engine's generation, and the
// outcome ledger is checked from the caller's counts and from
// Engine::stats(), before any number is reported.
#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"

namespace perfbench {
namespace {

using namespace qfa;

/// One shard keeps its worker fed: with 8 in flight its queue rarely runs
/// dry, so it parks after ~1 in 50 requests.  Two shards drained in turn
/// while the client waited on the oldest send and parked after 1 in 4, and
/// on a shared host each wake from a halted vCPU waits for the host's
/// scheduler: serve_small's p50 and p99 then spread 0.31 and 0.37 over ten
/// runs.
constexpr std::size_t kShards = 1;
constexpr std::size_t kOutstanding = 8;
constexpr std::size_t kNBest = 4;
constexpr std::uint16_t kAttrs = 10;
constexpr double kWarmupS = 3.0;
constexpr std::size_t kStoredSpansPerName = 8192;
constexpr std::size_t kMinEpisodes = 3;
constexpr std::uint64_t kOrderSeed = 0x6f72646572ULL;  ///< order stream of the tape

struct Shape {
    std::uint16_t types = 64;
    std::uint16_t impls = 64;
    std::size_t requests = 4096;  ///< distinct requests
    std::size_t tape = 262144;    ///< sends per episode, a seeded draw of the requests
    std::size_t segment = 256;    ///< completions per stretch of ops_per_s
    std::size_t setups = 31;      ///< engine start-ups timed for setup_s
    std::size_t compiles = 15;    ///< CompiledCaseBase builds timed for core.compile_s
    std::size_t core_passes = 5;
    double slo_us = 1000.0;       ///< fixed latency limit of slo_met_frac
    double slice_s = 0.1;         ///< slice of the traced run's throughput medians
};

Shape shape_for(const Options& options) {
    Shape shape;
    if (options.workload == "scan_large") {
        shape.types = 64;
        shape.impls = options.tiny ? 256 : 4096;
        shape.requests = options.tiny ? 64 : 8192;
        shape.tape = options.tiny ? 256 : 16384;
        shape.segment = 64;
        shape.setups = 11;
        shape.compiles = 3;
        shape.core_passes = 1;
        shape.slo_us = 20000.0;
        shape.slice_s = 1.0;
    } else if (options.tiny) {
        shape.tape = 8192;
    }
    if (options.tiny) {
        shape.setups = 4;
        shape.compiles = 2;
        shape.core_passes = 1;
    }
    return shape;
}

/// The seeded catalogue: the first draws of the seed's stream, so a set-up
/// can regenerate it on its own.
wl::GeneratedCatalog make_catalog(const Shape& shape, util::Rng& rng) {
    return wl::generate_catalog_with_bounds({shape.types, shape.impls, kAttrs, 0.0}, rng);
}

/// The seeded inputs: catalogue, requests and the tape that sends them.
struct Inputs {
    wl::GeneratedCatalog catalog;
    std::vector<cbr::Request> requests;
    std::vector<std::uint32_t> tape;
    std::uint64_t hash = 0;
};

Inputs make_inputs(const Options& options, const Shape& shape) {
    util::Rng rng(options.seed);
    Inputs in{make_catalog(shape, rng), {}, {}, 0};
    const wl::RequestStreamBuilder builder(in.catalog.case_base, in.catalog.bounds);
    for (wl::GeneratedRequest& generated : builder.batch(shape.requests, rng)) {
        in.requests.push_back(std::move(generated.request));
    }
    util::Rng order(options.seed ^ kOrderSeed);
    in.tape.reserve(shape.tape);
    for (std::size_t i = 0; i < shape.tape; ++i) {
        in.tape.push_back(static_cast<std::uint32_t>(order.index(in.requests.size())));
    }
    TapeHash hash;
    hash_case_base(in.catalog.case_base, hash);
    for (const cbr::Request& request : in.requests) {
        hash_request(request, hash);
    }
    hash.bytes(in.tape.data(), in.tape.size() * sizeof(std::uint32_t));
    in.hash = hash.digest();
    return in;
}

/// A time-bound phase (warm-up, traced run): completions per short slice.
struct Phase {
    Phase(TimePoint start, double seconds, double slice_length_s)
        : t0(start),
          slices(std::max<std::size_t>(
              1, static_cast<std::size_t>(std::lround(seconds / slice_length_s)))),
          slice_s(seconds / static_cast<double>(slices)),
          completed(slices, 0) {}

    /// Books one operation completed at `done`; `result` is null when the
    /// operation failed.
    void book(TimePoint done, const cbr::RetrievalResult* result) {
        ++attempted;
        if (result == nullptr) {
            return;
        }
        ++ok;
        const auto slice = static_cast<std::size_t>(s_between(t0, done) / slice_s);
        if (slice < slices) {
            ++completed[slice];
        }
    }

    [[nodiscard]] std::vector<double> slice_rates() const {
        std::vector<double> rates;
        for (const std::uint64_t count : completed) {
            rates.push_back(static_cast<double>(count) / slice_s);
        }
        return rates;
    }

    TimePoint t0;
    std::size_t slices;
    double slice_s;
    std::vector<std::uint64_t> completed;
    std::uint64_t attempted = 0, ok = 0;
};

/// The timed phase: the whole tape replayed, episode after episode.  Every
/// episode sends the same requests in the same order, through the same
/// shard queues, so each send and each stretch of `segment` consecutive
/// completions is the same work in every episode.  The host's interference
/// (steal, other tenants) only ever slows a replay, so the run keeps each
/// send's fastest latency and each stretch's fastest replay: a send or a
/// stretch of a few ms often escapes the host's stalls in some episode,
/// where a whole run does not.  A change that slows the program slows
/// every replay, so it still shows.
struct Replays {
    Replays(std::size_t tape, std::size_t segment_length)
        : segment(segment_length),
          best_s((tape + segment_length - 1) / segment_length,
                 std::numeric_limits<double>::infinity()),
          best_us(tape, std::numeric_limits<float>::infinity()) {}

    /// Books the k-th completion of the running episode; `result` is null
    /// when the operation failed.  Completions arrive in order.
    void book(std::size_t k, TimePoint done, double lat_us, const cbr::RetrievalResult* result) {
        ++attempted;
        if (result != nullptr) {
            ++ok;
            if (result->ok()) {
                ++status_ok;
                similarity_sum += result->best().similarity;
            }
        }
        if (k == 0) {
            segment_start = episode_start;
        }
        best_us[k] = std::min(best_us[k], static_cast<float>(lat_us));
        if ((k + 1) % segment == 0 || k + 1 == best_us.size()) {
            double& best = best_s[k / segment];
            best = std::min(best, s_between(segment_start, done));
            segment_start = done;
        }
    }

    /// Tape sends over the sum of the stretches' fastest replays.
    [[nodiscard]] double ops_per_s() const {
        double total_s = 0.0;
        for (const double s : best_s) {
            total_s += s;
        }
        return static_cast<double>(best_us.size()) / total_s;
    }

    std::size_t segment;
    std::vector<double> best_s;    ///< fastest replay of each stretch, s
    std::vector<float> best_us;    ///< fastest latency of each send, µs
    TimePoint episode_start{}, segment_start{};
    std::vector<double> episode_s; ///< wall time of each episode, for the notes
    std::uint64_t attempted = 0, ok = 0, status_ok = 0;
    double similarity_sum = 0.0;
};

/// Span names of the traced phase plus what the overhead metric needs.
struct TraceCtx {
    explicit TraceCtx(Tracer& t)
        : tracer(t),
          request(t.name("workload.request", Layer::workload)),
          submit(t.name("serve.submit", Layer::serve)),
          queue_service(t.name("serve.queue_service", Layer::serve)),
          resolve(t.name("serve.resolve", Layer::serve)) {}
    Tracer& tracer;
    std::uint32_t request, submit, queue_service, resolve;
    std::vector<std::pair<double, std::uint32_t>> service_us;  ///< (queue_service, request index)
    std::uint64_t next_op = 0;
};

/// Caller-side outcome counts over the engine's whole life.
struct Ledger {
    std::uint64_t attempted = 0;
    std::uint64_t served = 0;    ///< futures that returned a result
    std::uint64_t refused = 0;   ///< try_submit said no: no future
    std::uint64_t dropped = 0;   ///< futures that carried an exception
    std::uint64_t diverged = 0;  ///< results not identical to the reference
};

struct Client {
    serve::Engine* engine;
    const std::vector<cbr::Request>& requests;
    const std::vector<cbr::RetrievalResult>& reference;
    const std::vector<std::uint32_t>& tape;  ///< request indices, in sending order
    const Shape& shape;
    Ledger ledger;
    std::size_t cursor = 0;                  ///< next tape position of run()
    const cbr::RetrievalOptions options{kNBest};

    /// Settles one future: result when served and identical to the reference.
    /// The client polls the future rather than sleeping in get(): on a shared
    /// host, waking a halted vCPU waits for the host's scheduler, which put
    /// the host's load into every completion (in alternating runs on a busy
    /// host, episodes lost up to half their throughput while blocking, about
    /// a fifth while polling).
    std::optional<cbr::RetrievalResult> settle(std::future<cbr::RetrievalResult>& future,
                                               std::uint32_t index) {
        while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        }
        std::optional<cbr::RetrievalResult> result;
        try {
            result = future.get();
            ++ledger.served;
        } catch (...) {
            ++ledger.dropped;
            return std::nullopt;
        }
        if (!cbr::identical_results(*result, reference[index])) {
            ++ledger.diverged;
            return std::nullopt;
        }
        return result;
    }

    /// Keeps kOutstanding retrievals in flight, sending tape positions from
    /// `first` on (wrapping), until `sends` are sent or `end` has passed;
    /// then drains.  Completions are settled in sending order and each is
    /// handed to `book(k, done, latency_us, result)`, k counting from 0.
    /// Returns the number sent.
    template <typename Book>
    std::size_t drive(std::size_t first, std::size_t sends, TimePoint end, TraceCtx* trace,
                      Book&& book) {
        struct Slot {
            std::future<cbr::RetrievalResult> future;
            TimePoint begin{}, submitted{}, stamp{};
            std::uint32_t index = 0;
        };
        std::array<Slot, kOutstanding> ring;
        std::array<bool, kOutstanding> busy{};
        std::size_t sent = 0, booked = 0;
        // One request per call, stamped by the engine at completion.  A
        // refused request fails at once and its slot stays empty.
        const auto submit = [&](std::size_t i) {
            Slot& slot = ring[i];
            slot.index = tape[(first + sent++) % tape.size()];
            serve::JobClass cls;
            cls.completed_at = &slot.stamp;
            slot.begin = Clock::now();
            serve::AdmissionResult admission =
                engine->try_submit(requests[slot.index], options, cls);
            if (trace != nullptr) {
                slot.submitted = Clock::now();
            }
            ++ledger.attempted;
            if (!admission.admitted()) {
                ++ledger.refused;
                book(booked++, Clock::now(), 0.0, nullptr);
                return;
            }
            slot.future = std::move(admission.future);
            busy[i] = true;
        };
        for (std::size_t i = 0; i < ring.size() && sent < sends; ++i) {
            submit(i);
        }
        for (std::size_t i = 0; std::find(busy.begin(), busy.end(), true) != busy.end();
             i = (i + 1) % ring.size()) {
            if (!busy[i]) {
                continue;
            }
            Slot& slot = ring[i];
            const std::optional<cbr::RetrievalResult> result = settle(slot.future, slot.index);
            const TimePoint done = Clock::now();
            busy[i] = false;
            book(booked++, done, us_between(slot.begin, slot.stamp), result ? &*result : nullptr);
            if (trace != nullptr) {
                Tracer& t = trace->tracer;
                const std::uint64_t op = trace->next_op++;
                const SpanRef root = t.record(trace->request, slot.begin, done, op);
                t.record(trace->submit, slot.begin, slot.submitted, op, root);
                t.record(trace->queue_service, slot.submitted, slot.stamp, op, root);
                t.record(trace->resolve, slot.stamp, done, op, root);
                trace->service_us.emplace_back(us_between(slot.submitted, slot.stamp),
                                               slot.index);
            }
            if (sent < sends && done < end) {
                submit(i);
            }
        }
        return sent;
    }

    /// Keeps kOutstanding retrievals in flight for `seconds`, then drains;
    /// continues the tape where the previous run() left it.
    Phase run(double seconds, TraceCtx* trace) {
        Phase phase(Clock::now(), seconds, shape.slice_s);
        const TimePoint end = phase.t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
        cursor += drive(cursor, std::numeric_limits<std::size_t>::max(), end, trace,
                        [&](std::size_t, TimePoint done, double, const cbr::RetrievalResult* r) {
                            phase.book(done, r);
                        });
        return phase;
    }

    /// Sends the whole tape once, from its start, into `replays`.
    void episode(Replays& replays) {
        replays.episode_start = Clock::now();
        (void)drive(0, tape.size(), TimePoint::max(), nullptr,
                    [&](std::size_t k, TimePoint done, double lat_us,
                        const cbr::RetrievalResult* r) { replays.book(k, done, lat_us, r); });
        replays.episode_s.push_back(s_between(replays.episode_start, Clock::now()));
    }
};

/// The ledger identity from both sides: every attempt is served, refused
/// or dropped by the caller's count, and the engine's counters agree.
void check_ledger(const Ledger& ledger, const serve::EngineStats& stats, Report& report) {
    if (ledger.diverged != 0) {
        report.fail(std::to_string(ledger.diverged) +
                    " served results differ from the single-threaded reference");
    }
    if (ledger.served + ledger.refused + ledger.dropped != ledger.attempted) {
        report.fail("caller ledger: served + refused + dropped != attempted");
    }
    if (stats.served + stats.expired + stats.shed != stats.submitted) {
        report.fail("engine ledger: served + expired + shed != submitted");
    }
    if (stats.submitted + stats.rejected != ledger.attempted || stats.rejected != ledger.refused ||
        stats.served != ledger.served || stats.expired + stats.shed != ledger.dropped) {
        report.fail("caller and engine ledgers disagree");
    }
}

}  // namespace

Report run_serve_workload(const Options& options) {
    Report report;
    const Shape shape = shape_for(options);
    const double warmup_s = options.tiny ? 0.2 : kWarmupS;

    // Set-up and warm-up.  Engines start one after another (plan compile,
    // shard workers), each from its own copy of the catalogue, which it
    // takes by move.  Each serves a share of the warm-up traffic and is
    // shut down before the next starts; the last one is the serving engine.
    // So the set-up times sample the whole warm-up, while the process never
    // holds two engines or two catalogues and its peak memory is the
    // served system's.  Catalogue generation is not timed.
    serve::EngineConfig config;
    config.shard_count = kShards;
    config.backend = "cpu-simd";
    std::vector<double> setup_s;
    const auto set_up = [&](cbr::CaseBase case_base) {
        const TimePoint t0 = Clock::now();
        auto started = std::make_unique<serve::Engine>(std::move(case_base), config);
        setup_s.push_back(s_between(t0, Clock::now()));
        return started;
    };
    Inputs in = make_inputs(options, shape);
    report.notes.push_back("tape_hash=" + std::to_string(in.hash));
    std::unique_ptr<serve::Engine> engine = set_up(std::move(in.catalog.case_base));

    // The reference, on the first engine's generation.  Every later engine
    // compiles a catalogue regenerated from the same seed, so it must serve
    // the same results.
    std::vector<cbr::RetrievalResult> reference;
    {
        const serve::GenerationPtr first = engine->current();
        const cbr::Retriever retriever(first->case_base, first->bounds, first->compiled);
        cbr::RetrievalScratch scratch;
        reference.reserve(in.requests.size());
        for (const cbr::Request& request : in.requests) {
            reference.push_back(retriever.retrieve_compiled(request, {kNBest}, &scratch));
        }
    }

    Client client{engine.get(), in.requests, reference, in.tape, shape};
    const double warmup_share_s = warmup_s / static_cast<double>(shape.setups);
    for (std::size_t k = 1; k < shape.setups; ++k) {
        (void)client.run(warmup_share_s, nullptr);
        check_ledger(client.ledger, engine->stats(), report);
        engine.reset();
        util::Rng rng(options.seed);
        engine = set_up(make_catalog(shape, rng).case_base);
        client.engine = engine.get();
        client.ledger = {};
    }
    (void)client.run(warmup_share_s, nullptr);
    const serve::GenerationPtr generation = engine->current();

    std::uint64_t ok = 0;
    if (!options.trace) {
        // The latency buffers are allocated before the first episode, so
        // the peak memory read after the last one includes them.
        Replays replays(in.tape.size(), shape.segment);
        const TimePoint t0 = Clock::now();
        while (replays.episode_s.size() < kMinEpisodes ||
               s_between(t0, Clock::now()) < options.seconds) {
            client.episode(replays);
        }
        std::vector<double> latencies(replays.best_us.begin(), replays.best_us.end());
        const auto slo_met = static_cast<std::size_t>(
            std::count_if(latencies.begin(), latencies.end(),
                          [&](double us) { return us <= shape.slo_us; }));
        report.notes.push_back("setup_s " + quartiles(setup_s));
        Values& v = report.values;
        v["setup_s"] = median(setup_s);
        v["ops_per_s"] = replays.ops_per_s();
        v["p50_us"] = percentile(latencies, 0.50);
        v["p99_us"] = percentile(latencies, 0.99);
        v["ok_frac"] = static_cast<double>(replays.ok) / static_cast<double>(replays.attempted);
        v["slo_met_frac"] = static_cast<double>(slo_met) / static_cast<double>(latencies.size());
        v["grant_frac"] =
            static_cast<double>(replays.status_ok) / static_cast<double>(replays.attempted);
        v["similarity_mean"] =
            replays.status_ok == 0
                ? 0.0
                : replays.similarity_sum / static_cast<double>(replays.status_ok);
        v["peak_rss_mb"] = peak_rss_mib();
        std::vector<double> episode_rates;
        for (const double s : replays.episode_s) {
            episode_rates.push_back(static_cast<double>(in.tape.size()) / s);
        }
        report.notes.push_back("episodes=" + std::to_string(replays.episode_s.size()) +
                               " of " + std::to_string(in.tape.size()) + " sends; latency samples=" +
                               std::to_string(latencies.size()) + " (each send's fastest); stretches of " +
                               std::to_string(shape.segment) + " completions");
        report.notes.push_back("episode ops_per_s " + quartiles(episode_rates));
        report.attempted = replays.attempted;
        ok = replays.ok;
    } else {
        // Untraced and traced chunks alternate, so host drift during the run
        // reaches both sides of trace.overhead_frac alike.
        Tracer tracer(kStoredSpansPerName);
        TraceCtx ctx(tracer);
        const std::size_t chunks =
            std::max<std::size_t>(1, static_cast<std::size_t>(options.seconds / 2.0));
        const double chunk_s = options.seconds / (2.0 * static_cast<double>(chunks));
        std::vector<double> untraced_rates, traced_rates;
        for (std::size_t k = 0; k < chunks; ++k) {
            const Phase untraced = client.run(chunk_s, nullptr);
            const Phase traced = client.run(chunk_s, &ctx);
            report.attempted += untraced.attempted + traced.attempted;
            ok += untraced.ok + traced.ok;
            const std::vector<double> u = untraced.slice_rates(), t = traced.slice_rates();
            untraced_rates.insert(untraced_rates.end(), u.begin(), u.end());
            traced_rates.insert(traced_rates.end(), t.begin(), t.end());
        }

        Values& v = report.values;
        const std::vector<double> core_us = replay_core(
            *generation, in.requests, {kNBest}, shape.core_passes, tracer, report);
        time_compile(*generation, shape.compiles, tracer, v);
        v["serve.submit_us_p50"] = percentile(tracer.durations(ctx.submit), 0.50);
        v["serve.queue_service_us_p50"] = percentile(tracer.durations(ctx.queue_service), 0.50);
        v["serve.queue_service_us_p99"] = percentile(tracer.durations(ctx.queue_service), 0.99);
        v["serve.resolve_us_p50"] = percentile(tracer.durations(ctx.resolve), 0.50);
        if (!core_us.empty()) {
            std::vector<double> overhead;
            overhead.reserve(ctx.service_us.size());
            for (const auto& [service, index] : ctx.service_us) {
                overhead.push_back(service - core_us[index]);
            }
            v["serve.overhead_us_p50"] = percentile(overhead, 0.50);
        }
        v["trace.overhead_frac"] = 1.0 - median(traced_rates) / median(untraced_rates);
        finish_trace(tracer, options, report);
    }

    const serve::EngineStats stats = engine->stats();
    engine_layer_values(stats, report.values);
    check_ledger(client.ledger, stats, report);
    report.failed = report.attempted - ok;
    engine->shutdown();
    return report;
}

}  // namespace perfbench
