/**
 * @file
 * The benchmark's own logic, kept apart from the workloads so that
 * selftest.cc can check it: the tail-percentile rule, the failure
 * tally, the reference hashes that check simulated outputs, and the
 * in-memory span tracer of the traced run.
 */

#ifndef DGSIM_PERFBENCH_BENCH_LOGIC_HH
#define DGSIM_PERFBENCH_BENCH_LOGIC_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment_runner.hh"
#include "runner/result_sink.hh"

namespace dgsim::perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Median of @p values (mean of the middle two for an even count). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 != 0 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/** The tail of a timing distribution (see tailOf). */
struct Tail
{
    double value = 0.0;
    /** Share of samples at or below value, in percent. */
    double percentile = 0.0;
    std::size_t samples = 0;
    /** False when there are too few samples for the rule; value is
     * then the maximum. */
    bool valid = false;
};

/** Samples a tail value must have strictly beyond it. */
constexpr std::size_t kTailBeyond = 10;

/**
 * The highest percentile with at least ten samples beyond it: the
 * eleventh-largest sample, reported with its percentile
 * 100 * (n - 10) / n and the sample count n.
 */
inline Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    if (values.size() <= kTailBeyond) {
        tail.value = values.back();
        tail.percentile = 100.0;
        return tail;
    }
    const std::size_t n = values.size();
    tail.value = values[n - kTailBeyond - 1];
    tail.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                      static_cast<double>(n);
    tail.valid = true;
    return tail;
}

/**
 * Host-speed calibration. The shared hosts this benchmark runs on
 * change speed by 1.5x within minutes, with no steal time to show for
 * it (frequency and cache contention). A fixed slice of work that
 * never touches the simulator, timed after every job, tracks that
 * drift; dividing a job's time by the slices around it halves the
 * run-to-run spread. The slice's table is small and warmed before
 * timing, so the simulator's own cache footprint does not leak into
 * the calibration.
 */
class HostSpeed
{
  public:
    /** The slice time the normalized timings are scaled to: about
     * the fastest the slice ran on the 4-vCPU Xeon host the benchmark
     * was defined on. A fixed unit, never re-measured. */
    static constexpr double kNominalSliceMs = 1.5;

    HostSpeed() : table_(kEntries)
    {
        for (std::size_t i = 0; i < kEntries; ++i)
            table_[i] = static_cast<std::uint32_t>(i);
        last_ = sliceMs();
    }

    /** Time one slice, in ms. */
    double
    sliceMs()
    {
        work(kEntries); // warm the table
        const auto start = Clock::now();
        work(kSliceSteps);
        slices_.push_back(msSince(start));
        return slices_.back();
    }

    /** Every slice timed so far, in ms. */
    const std::vector<double> &slices() const { return slices_; }

    /**
     * Scale @p raw_ms, just measured, to the nominal host speed: time
     * a slice now and divide by the mean of it and the slice before.
     */
    double
    normalize(double raw_ms)
    {
        const double before = last_;
        last_ = sliceMs();
        return raw_ms * kNominalSliceMs / (0.5 * (before + last_));
    }

  private:
    static constexpr std::size_t kEntries = 16384; // 64 KiB
    static constexpr long kSliceSteps = 200'000;

    void
    work(long steps)
    {
        std::uint64_t x = 1;
        std::uint32_t acc = 0;
        for (long i = 0; i < steps; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint32_t value = table_[(x >> 33) & (kEntries - 1)];
            if (value & 1)
                acc += value;
            else
                acc ^= static_cast<std::uint32_t>(x);
            table_[(x >> 13) & (kEntries - 1)] = acc;
        }
    }

    std::vector<std::uint32_t> table_;
    std::vector<double> slices_;
    double last_ = kNominalSliceMs;
};

/** 64-bit FNV-1a over @p text. */
inline std::uint64_t
fnv1a(std::string_view text, std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

inline std::string
hex64(std::uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

/**
 * Hash of one outcome without host fields: the serialization
 * `dgrun --no-host-metrics` writes to its JSONL sink.
 */
inline std::string
resultHash(const runner::JobOutcome &outcome)
{
    return hex64(fnv1a(runner::toJsonLine(outcome, /*host_metrics=*/false)));
}

/** Jobs attempted and failed; a wrong output counts as a failure. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** One line per failure, for the result file. */
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (problems.size() < 50)
            problems.push_back(why);
    }

    double
    failedShare() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

/** How an output compares with the reference. */
enum class RefMatch
{
    Match,
    Mismatch,
    Missing, ///< The reference has no entry for this key.
};

/**
 * Result hashes keyed by job identity, recorded by
 * `dgbench --record-reference`. Stored as text: one "key<TAB>hash" line
 * per job, '#' lines are comments.
 */
class Reference
{
  public:
    /** Load @p path; returns false when it cannot be read. */
    bool
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const std::size_t tab = line.find('\t');
            if (tab == std::string::npos)
                continue;
            hashes_[line.substr(0, tab)] = line.substr(tab + 1);
        }
        return true;
    }

    void set(const std::string &key, const std::string &hash)
    {
        hashes_[key] = hash;
    }

    RefMatch
    compare(const std::string &key, const std::string &hash) const
    {
        const auto it = hashes_.find(key);
        if (it == hashes_.end())
            return RefMatch::Missing;
        return it->second == hash ? RefMatch::Match : RefMatch::Mismatch;
    }

    bool
    save(const std::string &path, const std::string &header) const
    {
        std::ofstream out(path, std::ios::trunc);
        out << header;
        for (const auto &[key, hash] : hashes_)
            out << key << '\t' << hash << '\n';
        return static_cast<bool>(out);
    }

    std::size_t size() const { return hashes_.size(); }

  private:
    std::map<std::string, std::string> hashes_;
};

/**
 * Count one finished job in @p tally: a failed job, or an output whose
 * hash differs from @p reference (or, when @p require_reference, is
 * missing from it), is a failure.
 */
inline void
accountOutcome(const runner::JobOutcome &outcome, const std::string &key,
               const Reference *reference, bool require_reference,
               Tally &tally)
{
    ++tally.attempted;
    if (!outcome.ok) {
        tally.fail(key + ": job failed: " + outcome.error);
        return;
    }
    if (!reference)
        return;
    switch (reference->compare(key, resultHash(outcome))) {
      case RefMatch::Match:
        break;
      case RefMatch::Mismatch:
        tally.fail(key + ": output differs from the reference");
        break;
      case RefMatch::Missing:
        if (require_reference)
            tally.fail(key + ": no reference output recorded");
        break;
    }
}

/** One traced interval. Times are ns since the tracer was made. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< Index of the enclosing span; -1 at top level.
    std::uint64_t job = 0;

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/**
 * Spans kept in memory on one thread and written out when the run
 * ends. A span's parent is the innermost span still open when it
 * starts.
 */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int
    open(const char *name)
    {
        Span span;
        span.name = name;
        span.parent = open_.empty() ? -1 : open_.back();
        span.job = job_;
        span.startNs = now();
        spans_.push_back(std::move(span));
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].endNs = now();
        if (!open_.empty() && open_.back() == id)
            open_.pop_back();
    }

    /** Job id stamped on spans opened from now on. */
    void setJob(std::uint64_t job) { job_ = job; }
    std::uint64_t job() const { return job_; }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::uint64_t job_ = 0;
};

/** Scoped span; a null tracer makes it a no-op. */
class SpanGuard
{
  public:
    SpanGuard(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1)
    {
    }
    ~SpanGuard()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** Each span's duration minus the time its direct children cover. */
inline std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].ms();
    for (const Span &span : spans) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.ms();
    }
    return self;
}

} // namespace dgsim::perfbench

#endif // DGSIM_PERFBENCH_BENCH_LOGIC_HH
