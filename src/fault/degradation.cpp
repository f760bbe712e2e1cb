#include "fault/degradation.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace greencap::fault {

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  for (const DegradationEvent& e : events_) {
    os << "[" << e.component << "] t=" << e.at_s << "s " << e.detail;
    if (!e.from.empty() || !e.to.empty()) {
      os << ": " << e.from << " -> " << e.to;
    }
    if (!e.reason.empty()) {
      os << " (" << e.reason << ")";
    }
    os << '\n';
  }
  return os.str();
}

void DegradationReport::write_json(std::ostream& os) const {
  obs::JsonWriter w{os};
  w.raw("{\"degradations\": [");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const DegradationEvent& e = events_[i];
    w.raw(i != 0 ? ", {\"component\": " : "{\"component\": ").str(e.component);
    w.raw(", \"detail\": ").str(e.detail).raw(", \"from\": ").str(e.from);
    w.raw(", \"to\": ").str(e.to).raw(", \"reason\": ").str(e.reason);
    w.raw(", \"at_s\": ").number(e.at_s).raw('}');
  }
  w.raw("]}\n");
}

}  // namespace greencap::fault
