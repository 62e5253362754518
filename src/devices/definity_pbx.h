#ifndef METACOMM_DEVICES_DEFINITY_PBX_H_
#define METACOMM_DEVICES_DEFINITY_PBX_H_

#include <string>
#include <vector>

#include "devices/device.h"

namespace metacomm::devices {

/// Configuration of one simulated Definity PBX.
struct PbxConfig {
  /// Instance name, e.g. "pbx1".
  std::string name = "pbx1";
  /// Extension prefixes this switch manages; empty accepts any
  /// extension. Mirrors the paper's example of a PBX that "accepts
  /// updates for phone numbers beginning with +1 908-582-9..." — the
  /// device itself enforces its dial-plan partition.
  std::vector<std::string> extension_prefixes;
  /// Emulated administration-link round-trip per command (0 = direct
  /// call). One LatencyEmulator session pays this once for a whole
  /// command batch.
  int64_t command_rtt_micros = 0;
};

/// Simulated Lucent Definity PBX.
///
/// Station records live in the "pbx" lexpress schema with fields:
///   Extension  (key; 3-6 digit dial-plan number)
///   Name       (display name; required)
///   Room       (optional)
///   Cos        (class of service, integer 0..7; default "1")
///   CoveragePath, SetType, Port (optional)
///
/// The administration surface is an OSSI-flavored line protocol:
///   add station 4567 Name "John Doe" Room 2C-401
///   change station 4567 Room 2C-402
///   remove station 4567
///   display station 4567
///   list station
/// Field values with spaces are double-quoted. Every command is atomic;
/// there are no transactions, triggers, or typed columns beyond the
/// per-field checks above — the weaknesses §5.1 works around.
class DefinityPbx : public Device {
 public:
  explicit DefinityPbx(PbxConfig config);

  StatusOr<std::string> ExecuteCommand(const std::string& command) override;

  /// Number of stations configured.
  size_t StationCount() const { return RecordCount(); }

  /// True if the extension falls inside this switch's dial plan.
  bool AcceptsExtension(const std::string& extension) const;

 private:
  Status Validate(const lexpress::Record& record) const override;
  /// Stations default to class of service 1.
  void OnAdd(lexpress::Record* record) override;

  PbxConfig config_;
};

}  // namespace metacomm::devices

#endif  // METACOMM_DEVICES_DEFINITY_PBX_H_
