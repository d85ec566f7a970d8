#include "fpga/config.h"

namespace fpart {

const char* OutputModeName(OutputMode mode) {
  return mode == OutputMode::kHist ? "HIST" : "PAD";
}

const char* LayoutModeName(LayoutMode mode) {
  switch (mode) {
    case LayoutMode::kRid:
      return "RID";
    case LayoutMode::kVrid:
      return "VRID";
    case LayoutMode::kCompressed:
      return "COMPRESSED";
  }
  return "unknown";
}

const char* SimModeName(SimMode mode) {
  switch (mode) {
    case SimMode::kReference:
      return "reference";
    case SimMode::kFast:
      return "fast";
  }
  return "unknown";
}

}  // namespace fpart
