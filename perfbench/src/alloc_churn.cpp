// alloc_churn: the fig. 1 application mix through alloc::negotiate.
//
// Four wl::make_profile applications (mp3 player, video, automotive ECU,
// cruise control) send QoS function requests over the Table 3 catalogue
// (15 types x 10 implementations x 10 attributes).  Each arrival is one
// timed negotiate() call; grants are released on the platform's
// simulated-time event queue.  About one call in 200 is followed by a §5
// revise step: Engine::retain of a perturbed granted variant,
// Engine::remove_implementation of the oldest retained variant (so the
// catalogue stays near its size), and manager.rebind(engine.current()).
//
// The run replays the same tape in episodes, each on a fresh platform,
// engine and manager.  The first episode is the reference; every later
// episode must reproduce its outcome sequence exactly.
#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "alloc/manager.hpp"
#include "alloc/negotiation.hpp"
#include "common.hpp"
#include "core/compiled.hpp"
#include "layers.hpp"
#include "serve/engine.hpp"
#include "sysmodel/system.hpp"
#include "util/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/requests.hpp"
#include "workload/scenarios.hpp"
#include "workload/zipf.hpp"

namespace perfbench {
namespace {

using namespace qfa;

constexpr std::uint16_t kAttrs = 10;
constexpr double kChurnProb = 1.0 / 200.0;
constexpr double kPerturb = 0.2;               ///< max relative change per attribute
constexpr std::size_t kLiveRetained = 4;       ///< retained variants kept at once
constexpr std::uint16_t kFirstRetainedId = 1000;
constexpr double kNovelty = 0.98;
constexpr double kSloUs = 1000.0;
constexpr double kWarmupS = 3.0;
constexpr std::size_t kStoredSpansPerName = 8192;
constexpr std::size_t kScenarios = 16;
constexpr sys::SimTime kScenarioSimUs = 20'000'000;

struct Arrival {
    sys::SimTime at = 0;
    sys::SimTime hold = 0;
    std::int32_t churn = -1;  ///< index into Tape::churn, or -1
};

/// One scenario: a catalogue, the four applications' calls on it (one
/// AllocRequest per arrival, with arrival and holding times), and the
/// perturbations of the revise steps.
struct Scenario {
    wl::GeneratedCatalog catalog;
    std::vector<alloc::AllocRequest> requests;
    std::vector<Arrival> arrivals;
    std::vector<std::array<double, kAttrs>> churn;
};

/// The seeded inputs: several independent scenarios, so that one run
/// averages over several catalogue and application draws.
struct Tape {
    std::vector<Scenario> scenarios;
    std::uint64_t hash = 0;
    std::size_t arrivals = 0;
    std::size_t revise_steps = 0;
};

Scenario make_scenario(util::Rng& rng, sys::SimTime duration_us, TapeHash& hash) {
    Scenario scenario{wl::generate_catalog_with_bounds({15, 10, kAttrs, 0.0}, rng), {}, {}, {}};
    const cbr::CaseBase& cb = scenario.catalog.case_base;

    struct Draft {
        sys::SimTime at;
        std::size_t app;
        alloc::AllocRequest request;
        sys::SimTime hold;
    };
    std::vector<Draft> drafts;
    const std::array kinds{wl::AppKind::mp3_player, wl::AppKind::video,
                           wl::AppKind::automotive_ecu, wl::AppKind::cruise_control};
    for (std::size_t a = 0; a < kinds.size(); ++a) {
        const wl::AppProfile profile =
            wl::make_profile(kinds[a], static_cast<alloc::AppId>(a + 1), cb, rng);
        util::Rng app_rng = rng.split();
        const wl::ZipfSampler popularity(profile.hot_types.size(), profile.zipf_s);
        std::map<std::uint16_t, cbr::Request> last;
        sys::SimTime t = 0;
        while (true) {
            const double gap = app_rng.exponential(1.0 / profile.mean_interarrival_us);
            t += std::max<sys::SimTime>(1, static_cast<sys::SimTime>(gap));
            if (t > duration_us) {
                break;
            }
            const cbr::TypeId type = profile.hot_types[popularity.sample(app_rng)];
            const auto cached = last.find(type.value());
            std::optional<cbr::Request> request;
            if (cached != last.end() && app_rng.bernoulli(profile.repeat_prob)) {
                request = cached->second;
            } else {
                request = wl::generate_request(cb, scenario.catalog.bounds, type, app_rng,
                                               profile.request_gen)
                              .request;
                last.insert_or_assign(type.value(), *request);
            }
            const double hold = app_rng.exponential(1.0 / profile.mean_holding_us);
            drafts.push_back(Draft{t, a,
                                   alloc::AllocRequest{profile.app, *request, profile.priority,
                                                       profile.threshold, 4, true, 0, {}},
                                   std::max<sys::SimTime>(1, static_cast<sys::SimTime>(hold))});
        }
    }
    std::stable_sort(drafts.begin(), drafts.end(), [](const Draft& x, const Draft& y) {
        return x.at != y.at ? x.at < y.at : x.app < y.app;
    });

    hash_case_base(cb, hash);
    for (Draft& draft : drafts) {
        Arrival arrival{draft.at, draft.hold, -1};
        if (rng.bernoulli(kChurnProb)) {
            std::array<double, kAttrs> deltas{};
            for (double& delta : deltas) {
                delta = rng.uniform_real(-kPerturb, kPerturb);
                hash.value(delta);
            }
            arrival.churn = static_cast<std::int32_t>(scenario.churn.size());
            scenario.churn.push_back(deltas);
        }
        hash.value(arrival.at);
        hash.value(arrival.hold);
        hash.value(arrival.churn);
        hash.value(draft.request.app);
        hash.value(draft.request.priority);
        hash.value(draft.request.threshold);
        hash_request(draft.request.request, hash);
        scenario.arrivals.push_back(arrival);
        scenario.requests.push_back(std::move(draft.request));
    }
    return scenario;
}

Tape make_tape(const Options& options) {
    util::Rng rng(options.seed);
    TapeHash hash;
    Tape tape;
    const std::size_t scenarios = options.tiny ? 2 : kScenarios;
    for (std::size_t k = 0; k < scenarios; ++k) {
        tape.scenarios.push_back(
            make_scenario(rng, options.tiny ? 2'000'000 : kScenarioSimUs, hash));
        tape.arrivals += tape.scenarios.back().arrivals.size();
        tape.revise_steps += tape.scenarios.back().churn.size();
    }
    tape.hash = hash.digest();
    return tape;
}

/// One episode's system: platform with the catalogue imported, engine
/// serving the catalogue, and a manager bound to the engine's generation.
struct World {
    World(cbr::CaseBase cb, const serve::EngineConfig& config)
        : engine(std::move(cb), config),
          manager(platform, engine.current()->case_base, engine.current()->bounds) {
        platform.repository().import_case_base(engine.current()->case_base);
        manager.rebind(engine.current());
    }
    sys::Platform platform;
    serve::Engine engine;
    alloc::AllocationManager manager;
};

/// Span names of a traced episode.
struct EpisodeTrace {
    explicit EpisodeTrace(Tracer& t)
        : tracer(t),
          arrival(t.name("workload.arrival", Layer::workload)),
          events(t.name("sysmodel.events", Layer::sysmodel)),
          release(t.name("alloc.release", Layer::alloc)),
          negotiate(t.name("alloc.negotiate", Layer::alloc)),
          retain(t.name("serve.retain", Layer::serve)),
          remove(t.name("serve.remove", Layer::serve)),
          rebind(t.name("alloc.rebind", Layer::alloc)),
          patch(t.name("core.patch", Layer::core)) {}
    Tracer& tracer;
    std::uint32_t arrival, events, release, negotiate, retain, remove, rebind, patch;
    std::uint64_t next_op = 0;
    std::size_t arrivals = 0;
};

struct Episode {
    std::vector<std::uint64_t> outcomes;  ///< one signature per arrival
    double replay_s = 0.0;
    std::vector<double> scenario_s;  ///< replay time of each scenario, in tape order
    std::uint64_t grants = 0;
    double similarity_sum = 0.0;
    double activation_sum_us = 0.0;  ///< simulated time, request to active
    double rounds_sum = 0.0;
    alloc::ManagerStats manager;
    sys::PlatformStats platform;
    serve::EngineStats engine;

    [[nodiscard]] double ops_per_s() const {
        return static_cast<double>(outcomes.size()) / replay_s;
    }

    /// Folds one scenario's replay into the episode.
    void append(const Episode& part) {
        outcomes.insert(outcomes.end(), part.outcomes.begin(), part.outcomes.end());
        replay_s += part.replay_s;
        scenario_s.push_back(part.replay_s);
        grants += part.grants;
        similarity_sum += part.similarity_sum;
        activation_sum_us += part.activation_sum_us;
        rounds_sum += part.rounds_sum;
        manager.requests += part.manager.requests;
        manager.retrievals += part.manager.retrievals;
        manager.counter_offers += part.manager.counter_offers;
        manager.bypass.hits += part.manager.bypass.hits;
        manager.bypass.misses += part.manager.bypass.misses;
        manager.bypass.stale += part.manager.bypass.stale;
        platform.launches += part.platform.launches;
        platform.preemptions += part.platform.preemptions;
        platform.repository_misses += part.platform.repository_misses;
        engine.submitted += part.engine.submitted;
        engine.served += part.engine.served;
        engine.rejected += part.engine.rejected;
        engine.expired += part.engine.expired;
        engine.shed += part.engine.shed;
        engine.cow_plans_shared += part.engine.cow_plans_shared;
        engine.cow_plans_published += part.engine.cow_plans_published;
        engine.shard_served.resize(std::max(engine.shard_served.size(), part.engine.shard_served.size()));
        for (std::size_t s = 0; s < part.engine.shard_served.size(); ++s) {
            engine.shard_served[s] += part.engine.shard_served[s];
        }
        for (const auto& [name, slice] : part.engine.backends) {
            serve::EngineStats::BackendStats& sum = engine.backends[name];
            sum.retries += slice.retries;
            sum.failovers += slice.failovers;
            sum.fallbacks += slice.fallbacks;
        }
    }
};

std::uint64_t signature(const alloc::NegotiationResult& result) {
    TapeHash hash;
    hash.value(static_cast<int>(result.end));
    hash.value(result.rounds);
    if (result.grant) {
        const alloc::Grant& g = *result.grant;
        hash.value(g.task.value);
        hash.value(g.impl.type.value());
        hash.value(g.impl.impl.value());
        hash.value(static_cast<std::uint8_t>(g.target));
        hash.value(g.similarity);
        hash.value(g.active_at);
        hash.value(g.via_bypass);
        hash.value(g.preemptions);
    }
    return hash.digest();
}

/// Times a CompiledCaseBase::patched replay of one published revise step.
void trace_patch(EpisodeTrace& trace, const serve::Generation& before,
                 const serve::Generation& after, cbr::TypeId changed, std::uint64_t op,
                 const SpanRef& parent) {
    const TimePoint t0 = Clock::now();
    const cbr::CompiledCaseBase patched =
        cbr::CompiledCaseBase::patched(before.compiled, after.case_base, after.bounds, changed);
    trace.tracer.record(trace.patch, t0, Clock::now(), op, parent);
}

/// One §5 revise step after a negotiate call; returns its signature.
std::uint64_t revise(World& w, const alloc::AllocRequest& request,
                     const alloc::NegotiationResult& result,
                     const std::array<double, kAttrs>& deltas, std::uint16_t variant_id,
                     std::deque<sys::ImplRef>& live, EpisodeTrace* trace, std::uint64_t op,
                     const SpanRef& parent) {
    const cbr::TypeId type = request.request.type();
    const serve::GenerationPtr before = w.engine.current();
    const cbr::FunctionType* function = before->case_base.find_type(type);
    const cbr::Implementation* source = nullptr;
    if (result.grant && result.grant->impl.type == type) {
        source = function->find_impl(result.grant->impl.impl);
    }
    if (source == nullptr) {
        source = &function->impls.front();
    }
    cbr::Implementation variant = *source;
    variant.id = cbr::ImplId{variant_id};
    for (std::size_t j = 0; j < variant.attributes.size() && j < kAttrs; ++j) {
        const double scaled = static_cast<double>(variant.attributes[j].value) * (1.0 + deltas[j]);
        variant.attributes[j].value =
            static_cast<cbr::AttrValue>(std::clamp(std::lround(scaled), 0L, 65535L));
    }

    TapeHash hash;
    TimePoint t0 = Clock::now();
    const cbr::RetainVerdict verdict = w.engine.retain(type, std::move(variant), kNovelty);
    TimePoint t1 = Clock::now();
    hash.value(static_cast<int>(verdict));
    if (trace != nullptr) {
        trace->tracer.record(trace->retain, t0, t1, op, parent);
        if (verdict == cbr::RetainVerdict::retained) {
            trace_patch(*trace, *before, *w.engine.current(), type, op, parent);
        }
    }
    if (verdict == cbr::RetainVerdict::retained) {
        live.push_back(sys::ImplRef{type, cbr::ImplId{variant_id}});
    }
    if (live.size() > kLiveRetained) {
        const sys::ImplRef oldest = live.front();
        live.pop_front();
        const serve::GenerationPtr previous = w.engine.current();
        t0 = Clock::now();
        const bool removed = w.engine.remove_implementation(oldest.type, oldest.impl);
        t1 = Clock::now();
        hash.value(removed);
        if (trace != nullptr) {
            trace->tracer.record(trace->remove, t0, t1, op, parent);
            trace_patch(*trace, *previous, *w.engine.current(), oldest.type, op, parent);
        }
    }
    t0 = Clock::now();
    w.manager.rebind(w.engine.current());
    t1 = Clock::now();
    if (trace != nullptr) {
        trace->tracer.record(trace->rebind, t0, t1, op, parent);
    }
    return hash.digest();
}

/// Replays one scenario on a freshly set-up world; each negotiate() call's
/// duration (µs) goes to negotiate_us[i].
Episode replay(World& w, const Scenario& tape, EpisodeTrace* trace, float* negotiate_us) {
    Episode episode;
    episode.outcomes.reserve(tape.arrivals.size());
    std::deque<sys::ImplRef> live;
    SpanRef events_span;  // parent of the releases fired inside run_until
    std::uint64_t op = 0;

    const TimePoint start = Clock::now();
    for (std::size_t i = 0; i < tape.arrivals.size(); ++i) {
        const Arrival& arrival = tape.arrivals[i];
        const alloc::AllocRequest& request = tape.requests[i];
        SpanRef root;
        if (trace != nullptr) {
            op = trace->next_op++;
            root = trace->tracer.open(trace->arrival, Clock::now(), op);
        }

        TimePoint t0 = Clock::now();
        if (trace != nullptr) {
            events_span = trace->tracer.open(trace->events, t0, op, root);
        }
        w.platform.events().run_until(arrival.at);
        if (trace != nullptr) {
            trace->tracer.close(events_span, Clock::now());
        }

        t0 = Clock::now();
        const alloc::NegotiationResult result = alloc::negotiate(w.manager, request);
        const TimePoint t1 = Clock::now();
        negotiate_us[i] = static_cast<float>(us_between(t0, t1));
        if (trace != nullptr) {
            trace->tracer.record(trace->negotiate, t0, t1, op, root);
        }

        std::uint64_t outcome = signature(result);
        episode.rounds_sum += static_cast<double>(result.rounds);
        if (result.granted()) {
            const alloc::Grant& grant = *result.grant;
            ++episode.grants;
            episode.similarity_sum += grant.similarity;
            episode.activation_sum_us += static_cast<double>(grant.active_at - arrival.at);
            const sys::TaskId task = grant.task;
            const sys::SimTime release_at = std::max(grant.active_at, arrival.at + arrival.hold);
            w.platform.events().schedule(release_at, [&w, trace, &events_span, &op, task] {
                if (trace == nullptr) {
                    (void)w.manager.release(task);
                    return;
                }
                const TimePoint r0 = Clock::now();
                (void)w.manager.release(task);
                trace->tracer.record(trace->release, r0, Clock::now(), op, events_span);
            });
        }
        if (arrival.churn >= 0) {
            const auto variant_id = static_cast<std::uint16_t>(kFirstRetainedId + arrival.churn);
            outcome ^= revise(w, request, result, tape.churn[static_cast<std::size_t>(arrival.churn)],
                              variant_id, live, trace, op, root) * 0x9e3779b97f4a7c15ULL;
        }
        episode.outcomes.push_back(outcome);
        if (trace != nullptr) {
            trace->tracer.close(root, Clock::now());
        }
    }
    episode.replay_s = s_between(start, Clock::now());
    if (trace != nullptr) {
        trace->arrivals += tape.arrivals.size();
    }

    // Untimed: release what is still held so every scheduled closure runs
    // while the state it captures is alive.
    events_span = {};
    w.platform.events().run_all();
    episode.manager = w.manager.stats();
    episode.platform = w.platform.stats();
    episode.engine = w.engine.stats();
    return episode;
}

/// Per-run accumulation over the episodes of one phase.
///
/// Every episode replays identical work (the outcome check proves it), so
/// the differences between episodes are the host's alone, and the host's
/// interference only ever slows them.  A call's latency is therefore its
/// fastest time over the phase's episodes, and a scenario's replay time
/// its fastest replay.  A ~3 µs call or a ~15 ms scenario often fits
/// between the host's stalls where a whole episode rarely does, so these
/// are the steadiest estimates of the program's own speed on a shared
/// host (README.md).
struct Phase {
    Phase(std::size_t tape_calls, std::size_t scenarios)
        : episode_us(tape_calls),
          best_us(tape_calls, std::numeric_limits<float>::infinity()),
          best_scenario_s(scenarios, std::numeric_limits<double>::infinity()) {}

    /// Where the next episode writes its negotiate() durations.
    [[nodiscard]] float* next_row() { return episode_us.data(); }

    /// Books the episode whose durations were written to next_row().
    void add(const Episode& episode, const Episode& reference) {
        ops_per_s.push_back(episode.ops_per_s());
        for (std::size_t k = 0; k < best_scenario_s.size(); ++k) {
            best_scenario_s[k] = std::min(best_scenario_s[k], episode.scenario_s[k]);
        }
        for (std::size_t i = 0; i < episode.outcomes.size(); ++i) {
            const bool same = i < reference.outcomes.size() &&
                              episode.outcomes[i] == reference.outcomes[i];
            ++attempted;
            ok += same ? 1 : 0;
            slo_met += same && episode_us[i] <= kSloUs ? 1 : 0;
            best_us[i] = std::min(best_us[i], episode_us[i]);
        }
    }

    /// The tape's calls over the sum of each scenario's fastest replay.
    [[nodiscard]] double fastest_ops_per_s() const {
        double seconds = 0.0;
        for (const double s : best_scenario_s) {
            seconds += s;
        }
        return static_cast<double>(best_us.size()) / seconds;
    }

    /// Percentile q over the tape's calls of each call's fastest time.
    [[nodiscard]] double latency_us(double q) const {
        std::vector<double> values(best_us.begin(), best_us.end());
        return percentile(values, q);
    }

    std::vector<double> ops_per_s;  ///< per episode
    std::uint64_t attempted = 0, ok = 0, slo_met = 0;

private:
    std::vector<float> episode_us;  ///< the episode being replayed
    std::vector<float> best_us;     ///< per call, fastest so far
    std::vector<double> best_scenario_s;  ///< per scenario, fastest replay so far
};

}  // namespace

Report run_alloc_churn(const Options& options) {
    Report report;
    const Tape tape = make_tape(options);
    report.notes.push_back("tape_hash=" + std::to_string(tape.hash) + " scenarios=" +
                           std::to_string(tape.scenarios.size()) +
                           " arrivals=" + std::to_string(tape.arrivals) +
                           " revise_steps=" + std::to_string(tape.revise_steps));

    serve::EngineConfig config;
    config.shard_count = 2;
    config.backend = "cpu-simd";
    std::vector<double> setup_s;
    const auto set_up = [&](const Scenario& scenario) {
        cbr::CaseBase copy = scenario.catalog.case_base;
        const TimePoint t0 = Clock::now();
        auto world = std::make_unique<World>(std::move(copy), config);
        setup_s.push_back(s_between(t0, Clock::now()));
        return world;
    };
    // One episode replays every scenario of the tape, each on a fresh world.
    const auto episode = [&](EpisodeTrace* trace, float* negotiate_us) {
        Episode all;
        for (const Scenario& scenario : tape.scenarios) {
            all.append(replay(*set_up(scenario), scenario, trace, negotiate_us));
            negotiate_us += scenario.arrivals.size();
        }
        return all;
    };

    // Untimed reference episode, then untimed warm-up episodes; every later
    // episode must reproduce the reference outcome sequence.
    std::vector<float> reference_us(tape.arrivals);
    const Episode reference = episode(nullptr, reference_us.data());
    const auto run_phase = [&](double seconds, EpisodeTrace* trace) {
        Phase phase(tape.arrivals, tape.scenarios.size());
        const TimePoint end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(seconds));
        do {
            const Episode replayed = episode(trace, phase.next_row());
            phase.add(replayed, reference);
        } while (Clock::now() < end);
        return phase;
    };
    const Phase warmup = run_phase(options.tiny ? 0.1 : kWarmupS, nullptr);
    std::uint64_t attempted = warmup.attempted, ok = warmup.ok;

    const double arrivals = static_cast<double>(reference.outcomes.size());
    Values& v = report.values;
    if (!options.trace) {
        Phase timed = run_phase(options.seconds, nullptr);
        v["setup_s"] = median(setup_s);
        v["ops_per_s"] = timed.fastest_ops_per_s();
        v["p50_us"] = timed.latency_us(0.50);
        v["p99_us"] = timed.latency_us(0.99);
        v["ok_frac"] = static_cast<double>(timed.ok) / static_cast<double>(timed.attempted);
        v["slo_met_frac"] = static_cast<double>(timed.slo_met) / static_cast<double>(timed.attempted);
        v["grant_frac"] = static_cast<double>(reference.grants) / arrivals;
        v["similarity_mean"] =
            reference.grants == 0 ? 0.0 : reference.similarity_sum / static_cast<double>(reference.grants);
        v["peak_rss_mb"] = peak_rss_mib();
        report.notes.push_back("latency samples=" + std::to_string(timed.attempted) + " over " +
                               std::to_string(timed.ops_per_s.size()) + " episodes of " +
                               std::to_string(tape.arrivals) + " calls");
        report.notes.push_back("setup_s " + quartiles(setup_s));
        report.notes.push_back("episode ops_per_s " + quartiles(timed.ops_per_s));
        report.attempted = timed.attempted;
        attempted += timed.attempted;
        ok += timed.ok;
        report.failed = timed.attempted - timed.ok;
    } else {
        // Untraced and traced episodes alternate, so host drift during the
        // run reaches both sides of trace.overhead_frac alike.
        Tracer tracer(kStoredSpansPerName);
        EpisodeTrace trace(tracer);
        Phase untraced(tape.arrivals, tape.scenarios.size()),
            traced(tape.arrivals, tape.scenarios.size());
        const TimePoint end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(options.seconds));
        do {
            const Episode plain = episode(nullptr, untraced.next_row());
            untraced.add(plain, reference);
            const Episode recorded = episode(&trace, traced.next_row());
            traced.add(recorded, reference);
        } while (Clock::now() < end);
        report.attempted = untraced.attempted + traced.attempted;
        report.failed = report.attempted - untraced.ok - traced.ok;
        attempted += report.attempted;
        ok += untraced.ok + traced.ok;

        v["alloc.negotiate_us_p50"] = percentile(tracer.durations(trace.negotiate), 0.50);
        v["alloc.negotiate_us_p99"] = percentile(tracer.durations(trace.negotiate), 0.99);
        v["alloc.release_us_p50"] = percentile(tracer.durations(trace.release), 0.50);
        v["alloc.rebind_us_p50"] = percentile(tracer.durations(trace.rebind), 0.50);
        v["serve.retain_us_p50"] = percentile(tracer.durations(trace.retain), 0.50);
        v["serve.retain_us_p99"] = percentile(tracer.durations(trace.retain), 0.99);
        v["serve.remove_us_p50"] = percentile(tracer.durations(trace.remove), 0.50);
        v["core.patch_us_p50"] = percentile(tracer.durations(trace.patch), 0.50);
        double events_us = 0.0;
        for (const double us : tracer.durations(trace.events)) {
            events_us += us;
        }
        v["sysmodel.events_us_per_op"] = events_us / static_cast<double>(trace.arrivals);

        const alloc::ManagerStats& m = reference.manager;
        const auto requests = static_cast<double>(std::max<std::uint64_t>(1, m.requests));
        v["alloc.bypass_hit_frac"] = m.bypass.hit_rate();
        v["alloc.retrievals_per_request"] = static_cast<double>(m.retrievals) / requests;
        v["alloc.counter_offer_frac"] = static_cast<double>(m.counter_offers) / requests;
        v["alloc.rounds_mean"] = reference.rounds_sum / arrivals;
        v["alloc.reject_frac"] = 1.0 - static_cast<double>(reference.grants) / arrivals;
        v["sysmodel.launches"] = static_cast<double>(reference.platform.launches);
        v["sysmodel.preemptions"] = static_cast<double>(reference.platform.preemptions);
        v["sysmodel.repository_misses"] = static_cast<double>(reference.platform.repository_misses);
        v["sysmodel.activation_us_mean"] =
            reference.grants == 0 ? 0.0
                                  : reference.activation_sum_us / static_cast<double>(reference.grants);
        engine_layer_values(reference.engine, v);

        // The first scenario's retrievals, replayed single-threaded on its
        // initial generation.
        const Scenario& first = tape.scenarios.front();
        const std::unique_ptr<World> world = set_up(first);
        const serve::GenerationPtr generation = world->engine.current();
        std::vector<cbr::Request> requests_only;
        for (const alloc::AllocRequest& request : first.requests) {
            requests_only.push_back(request.request);
        }
        (void)replay_core(*generation, requests_only, {4}, options.tiny ? 1 : 3, tracer, report);
        time_compile(*generation, options.tiny ? 3 : 31, tracer, v);
        v["trace.overhead_frac"] = 1.0 - median(traced.ops_per_s) / median(untraced.ops_per_s);
        finish_trace(tracer, options, report);
    }
    if (ok != attempted) {
        report.fail(std::to_string(attempted - ok) +
                    " negotiate outcomes differ from the reference replay of the tape");
    }
    return report;
}

}  // namespace perfbench
