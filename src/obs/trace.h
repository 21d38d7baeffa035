// Structured trace events for evaluation: iteration begin/end, rule
// fire, relation insert, module call/done. Events are emitted from
// serial points of the engine (the fixpoint driver thread and the
// module manager), so a TraceSink never sees concurrent Emit calls from
// one evaluation and the event order is deterministic for a given
// program. The JSONL form is one self-contained JSON object per line,
// parseable by TraceEvent::FromJson (round-trip tested in api_test).

#ifndef CORAL_OBS_TRACE_H_
#define CORAL_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace coral::obs {

enum class TraceKind {
  kModuleCall,  // a query activated a module
  kModuleDone,  // the activation's fixpoint (or scan) completed
  kIterBegin,   // one SCC fixpoint iteration starts
  kIterEnd,     // ... ends; `count` = tuples new this iteration
  kRuleFire,    // one rule version applied; `count` = body solutions
  kInsert,      // a tuple became visible in a derived relation
};

const char* TraceKindName(TraceKind kind);

/// One trace record. Fields not meaningful for a given kind keep their
/// defaults and are omitted from the JSON form.
struct TraceEvent {
  TraceKind kind = TraceKind::kModuleCall;
  std::string module;  // module name ("" for workspace facts)
  std::string pred;    // predicate (kInsert) or exported query form
  std::string detail;  // printable tuple / goal, when cheap to render
  int32_t scc = -1;    // SCC index within the module's plan
  int32_t rule = -1;   // rule index within the module
  uint64_t iter = 0;   // global iteration number within the activation
  uint64_t count = 0;  // kind-specific cardinality (see TraceKind)
  uint64_t ns = 0;     // duration (kIterEnd, kModuleDone)

  /// Single-line JSON object, no trailing newline.
  std::string ToJson() const;
  /// Parses one line as produced by ToJson. Unknown keys are ignored;
  /// a malformed line or unknown "ev" is kInvalidArgument.
  static StatusOr<TraceEvent> FromJson(const std::string& line);
};

/// Receives events in evaluation order from serial engine code; Emit
/// implementations need no internal locking.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& event) = 0;
};

/// Writes one JSON object per event to an unowned stream.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream* out) : out_(out) {}
  void Emit(const TraceEvent& event) override {
    *out_ << event.ToJson() << '\n';
  }

 private:
  std::ostream* out_;
};

/// Buffers events in memory; handy for tests and coral_prof.
class CollectingTraceSink : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace coral::obs

#endif  // CORAL_OBS_TRACE_H_
