#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace lcl::obs {

/// One named integer attached to a span or event (configuration counts,
/// probe totals, round numbers). Keys are expected to be string literals.
struct TraceArg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

enum class TraceFormat {
  /// One self-contained JSON object per line; the native format
  /// `tools/trace_summary` reads. Record types: "meta" (header), "span",
  /// "event" (instant), "metrics" (footer with the registry snapshot).
  kJsonl,
  /// Chrome `trace_event` JSON array ("X" complete events, "i" instants);
  /// loadable in chrome://tracing and Perfetto.
  kChromeJson,
};

/// A tracing sink bound to an output file. At most one session is
/// *current* at a time; `ScopedSpan` and the `LCL_OBS_*` trace macros write
/// to the current session and cost a single pointer load when none is
/// installed (the "null sink" state).
///
/// Timestamps are steady-clock microseconds relative to session start.
/// Records are buffered and flushed on `close()`/destruction; `close()`
/// also appends a snapshot of the global `MetricsRegistry` so a trace file
/// is a self-contained observation of the run.
class TraceSession {
 public:
  /// Opens `path` for writing; throws `std::runtime_error` on failure.
  /// An empty path creates a discarding session (records are formatted
  /// into the void) - useful for overhead measurements.
  explicit TraceSession(const std::string& path,
                        TraceFormat format = TraceFormat::kJsonl);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Microseconds since the session started.
  std::int64_t now_us() const;

  /// A completed span (Chrome "X" event). `args` may be null when empty.
  void emit_span(std::string_view name, std::string_view category,
                 std::int64_t ts_us, std::int64_t dur_us,
                 const TraceArg* args, std::size_t arg_count);

  /// An instant event (Chrome "i" event).
  void emit_instant(std::string_view name, std::string_view category,
                    const TraceArg* args, std::size_t arg_count);

  /// A run-progress record: `{"t":"progress","ts":...,"run_id":...,
  /// "phase":...,"args":{...}}` in JSONL; an instant event named
  /// "progress" (run id and phase folded into cat/name slots are lossy,
  /// so Chrome gets them as a "progress/<phase>" instant) otherwise.
  void emit_progress(std::string_view run_id, std::string_view phase,
                     const TraceArg* args, std::size_t arg_count);

  /// A resource-usage record: `{"t":"resource","ts":...,"args":{rss_kb,
  /// peak_rss_kb,cpu_ms}}` in JSONL; a "resource" instant in Chrome
  /// format.
  void emit_resource(const TraceArg* args, std::size_t arg_count);

  /// Writes the metrics footer and the format trailer, then closes the
  /// file. Idempotent; called by the destructor if not called explicitly.
  void close();

  TraceFormat format() const noexcept { return format_; }
  const std::string& path() const noexcept { return path_; }
  std::uint64_t records_written() const noexcept { return records_; }

  /// The current session, or nullptr (the null sink). Not owned.
  static TraceSession* current() noexcept;
  /// Installs `session` as current; pass nullptr to detach. Returns the
  /// previous session.
  static TraceSession* set_current(TraceSession* session) noexcept;

 private:
  void write_record(const std::string& line);
  std::string format_args_object(const TraceArg* args,
                                 std::size_t arg_count) const;

  std::string path_;
  TraceFormat format_;
  std::ofstream file_;
  bool discard_ = false;
  /// Set once by the close() that wins; emitters read it unlocked as a
  /// cheap "stop producing" hint (atomic - emitters race with close()).
  std::atomic<bool> closed_{false};
  /// The authoritative gate: set under `mutex_` after the footer/trailer
  /// are written, checked by `write_record` under the same lock, so an
  /// emit that slipped past the `closed_` fast path can never write
  /// behind the trailer.
  bool finalized_ = false;
  bool first_chrome_record_ = true;
  std::uint64_t records_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
};

/// RAII span timer: measures construction-to-destruction and emits one
/// complete span into the current session. When no session is installed
/// the constructor is one pointer load and the destructor a branch.
class ScopedSpan {
 public:
  static constexpr std::size_t kMaxArgs = 6;

  ScopedSpan(const char* name, const char* category) noexcept
      : session_(TraceSession::current()), name_(name), category_(category) {
    if (session_ != nullptr) start_ = session_->now_us();
  }

  ~ScopedSpan() {
    if (session_ != nullptr) {
      session_->emit_span(name_, category_, start_,
                          session_->now_us() - start_, args_, arg_count_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a named integer to the span (up to kMaxArgs; extra args are
  /// dropped). `key` must outlive the span - pass a string literal.
  void arg(const char* key, std::int64_t value) noexcept {
    if (session_ != nullptr && arg_count_ < kMaxArgs) {
      args_[arg_count_++] = TraceArg{key, value};
    }
  }

  bool active() const noexcept { return session_ != nullptr; }

 private:
  TraceSession* session_;
  const char* name_;
  const char* category_;
  std::int64_t start_ = 0;
  TraceArg args_[kMaxArgs];
  std::size_t arg_count_ = 0;
};

/// No-op stand-in with ScopedSpan's interface; what `LCL_OBS_SPAN` expands
/// to in LCL_OBS=0 builds. Defined unconditionally so mixed-mode programs
/// (e.g. the disabled-mode test target) see identical declarations.
struct NullSpan {
  void arg(const char*, std::int64_t) noexcept {}
  bool active() const noexcept { return false; }
};

}  // namespace lcl::obs
