// Chrome-trace (about://tracing, Perfetto) event recording for the simulated
// cluster. Components emit named duration events on named tracks ("worker:0
// gpu", "host2 egress", ...) in virtual time; Tracer::WriteJson produces a
// trace-event-format file that loads directly into the Perfetto UI, making a
// step's compute/communication overlap visible at a glance.
//
// Tracing is off unless a Tracer is installed (zero overhead on the hot path
// beyond one pointer test): a name made of several parts is passed as those
// parts, and TraceSpan/TraceInstant concatenate them only behind that test.
#ifndef RDMADL_SRC_SIM_TRACE_H_
#define RDMADL_SRC_SIM_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace sim {

class Tracer {
 public:
  // Records a completed span on |track| from |start_ns| to |end_ns|.
  void AddSpan(const std::string& track, const std::string& name, int64_t start_ns,
               int64_t end_ns);

  // Records an instantaneous event.
  void AddInstant(const std::string& track, const std::string& name, int64_t at_ns);

  // Serializes in Chrome trace-event JSON (displayTimeUnit ns; timestamps in
  // microseconds as the format requires).
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  size_t num_events() const { return events_.size(); }
  void Clear() { events_.clear(); }

  // Process-wide tracer slot: components record via Tracer::Current() when
  // one is installed. Not thread-safe (the simulation is single-threaded).
  static Tracer* Current() { return current_; }
  static void Install(Tracer* tracer) { current_ = tracer; }

 private:
  struct Event {
    std::string track;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;  // == start_ns for instants.
  };

  // Track name -> stable tid for the JSON output.
  int TidFor(const std::string& track);

  std::vector<Event> events_;
  std::map<std::string, int> tids_;
  static Tracer* current_;
};

// Convenience: record a span iff a tracer is installed.
inline void TraceSpan(const std::string& track, const std::string& name, int64_t start_ns,
                      int64_t end_ns) {
  if (Tracer* tracer = Tracer::Current()) {
    tracer->AddSpan(track, name, start_ns, end_ns);
  }
}

inline void TraceInstant(const std::string& track, const std::string& name, int64_t at_ns) {
  if (Tracer* tracer = Tracer::Current()) {
    tracer->AddInstant(track, name, at_ns);
  }
}

// The same, named StrCat(name_parts...), which is built only when a tracer
// is installed.
template <typename... NameParts>
void TraceSpan(const std::string& track, int64_t start_ns, int64_t end_ns,
               const NameParts&... name_parts) {
  if (Tracer* tracer = Tracer::Current()) {
    tracer->AddSpan(track, StrCat(name_parts...), start_ns, end_ns);
  }
}

template <typename... NameParts>
void TraceInstant(const std::string& track, int64_t at_ns, const NameParts&... name_parts) {
  if (Tracer* tracer = Tracer::Current()) {
    tracer->AddInstant(track, StrCat(name_parts...), at_ns);
  }
}

}  // namespace sim
}  // namespace rdmadl

#endif  // RDMADL_SRC_SIM_TRACE_H_
