#ifndef METACOMM_DEVICES_MESSAGING_PLATFORM_H_
#define METACOMM_DEVICES_MESSAGING_PLATFORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "devices/device.h"

namespace metacomm::devices {

/// Configuration of one simulated voice Messaging Platform.
struct MpConfig {
  /// Instance name, e.g. "mp1".
  std::string name = "mp1";
  /// Prefix of generated subscriber ids ("SUB" -> SUB000001, ...).
  std::string subscriber_id_prefix = "SUB";
  /// Emulated administration-link round-trip per command (0 = direct
  /// call). One LatencyEmulator session pays this once for a whole
  /// command batch.
  int64_t command_rtt_micros = 0;
};

/// Simulated voice messaging platform (Octel/Intuity style).
///
/// Mailbox records live in the "mp" lexpress schema with fields:
///   MailboxNumber   (key; digits — normally the phone extension)
///   SubscriberName  (required)
///   SubscriberId    (device-GENERATED unique id; cannot be set by the
///                    caller — this is the "device-generated
///                    information" of paper §5.5 that must flow back
///                    into the directory after the add)
///   Pin, Greeting, EmailAddress (optional)
///
/// The administration surface is a keyword protocol, deliberately
/// unlike the PBX's OSSI (heterogeneity is the point):
///   ADD MAILBOX 4567 SubscriberName="John Doe" Pin=0000
///   MODIFY MAILBOX 4567 Greeting="standard"
///   DELETE MAILBOX 4567
///   SHOW MAILBOX 4567
///   LIST MAILBOXES
class MessagingPlatform : public Device {
 public:
  explicit MessagingPlatform(MpConfig config);

  StatusOr<std::string> ExecuteCommand(const std::string& command) override;

  size_t MailboxCount() const { return RecordCount(); }

 private:
  Status Validate(const lexpress::Record& record) const override;
  /// Mints the mailbox's SubscriberId; the add notification carries
  /// it so MetaComm can propagate it (§5.5).
  void OnAdd(lexpress::Record* record) REQUIRES(mutex_) override;

  MpConfig config_;
  uint64_t next_subscriber_ GUARDED_BY(mutex_) = 1;
};

}  // namespace metacomm::devices

#endif  // METACOMM_DEVICES_MESSAGING_PLATFORM_H_
