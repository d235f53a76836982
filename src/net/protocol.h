#ifndef HIQUE_NET_PROTOCOL_H_
#define HIQUE_NET_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace hique::net {

/// The hique wire protocol (hqwp): length-prefixed binary frames over one
/// TCP connection, mapping 1:1 onto the in-process Session/ResultSet API.
/// See docs/protocol.md for the full frame reference.
///
/// Frame layout (everything little-endian):
///
///   [payload_len : u32] [type : u8] [payload : payload_len bytes]
///
/// The connection opens with Hello/HelloAck (magic + version + endianness
/// negotiation); afterwards the client drives one statement at a time:
/// Query or Execute yields ResultSchema, zero or more RowPage frames and a
/// terminal ResultDone or Error frame. Cancel and Close may be sent at any
/// point, including mid-stream.
inline constexpr uint32_t kMagic = 0x48515750;  // "HQWP"
// v4: ResultDone carries rows_affected (DML over the wire).
// v5: ServerStats/ServerStatsReply — a client may ask for the engine's
//     metrics dump (Prometheus text) between statements. Pure addition:
//     every v4 frame is encoded identically in v5.
inline constexpr uint16_t kProtocolVersion = 5;
inline constexpr uint8_t kLittleEndian = 1;

/// Upper bound on one frame's payload. Row pages are ~4 KiB, SQL text and
/// error messages are small; anything beyond this is a corrupt or hostile
/// stream and the connection is dropped.
inline constexpr uint32_t kMaxPayload = 16u << 20;

/// Frame header size on the wire: u32 length + u8 type.
inline constexpr size_t kFrameHeaderSize = 5;

enum class MsgType : uint8_t {
  kHello = 1,         // client -> server: magic, version, endian, client name
  kHelloAck = 2,      // server -> client: version, server banner
  kQuery = 3,         // client -> server: SQL text
  kPrepare = 4,       // client -> server: SQL text with ? placeholders
  kPrepareAck = 5,    // server -> client: stmt id, placeholder count, meta
  kExecute = 6,       // client -> server: stmt id + typed parameter values
  kResultSchema = 7,  // server -> client: result schema + plan metadata
  kRowPage = 8,       // server -> client: one page of raw NSM result tuples
  kResultDone = 9,    // server -> client: terminal summary of the stream
  kCancel = 10,       // client -> server: cancel the in-flight statement
  kClose = 11,        // client -> server: end the session
  kCloseAck = 12,     // server -> client: session admission stats summary
  kError = 13,        // server -> client: status code + message (terminal
                      // for the current statement, not the connection)
  kServerStats = 14,       // client -> server: request the metrics dump (v5)
  kServerStatsReply = 15,  // server -> client: uptime + Prometheus text (v5)
};

/// One decoded frame: type + owned payload bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<uint8_t> payload;
};

/// Append-only little-endian payload builder. All integers are written
/// byte-by-byte (shift encoding), so the encoded form is identical on any
/// host; doubles travel as their IEEE-754 bit pattern.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLE(v, 2); }
  void U32(uint32_t v) { AppendLE(v, 4); }
  void U64(uint64_t v) { AppendLE(v, 8); }
  void I32(int32_t v) { AppendLE(static_cast<uint32_t>(v), 4); }
  void I64(int64_t v) { AppendLE(static_cast<uint64_t>(v), 8); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// u32 length + raw bytes.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void Bytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void AppendLE(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader. Every read reports
/// truncation as a Status instead of walking off the buffer — the server
/// must survive arbitrary bytes from the network.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  size_t remaining() const { return size_ - pos_; }

  Status U8(uint8_t* out);
  Status U16(uint16_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status I32(int32_t* out);
  Status I64(int64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);
  /// Borrows `n` raw bytes from the payload (valid while the buffer lives).
  Status Bytes(size_t n, const uint8_t** out);

 private:
  Status ReadLE(int bytes, uint64_t* out);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Serializes one frame (header + payload) into `out`, appending.
void EncodeFrame(MsgType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out);

/// Attempts to decode one frame from the front of `buf`. Returns the
/// number of bytes consumed (0 when the buffer does not yet hold a whole
/// frame); a malformed header (oversized payload) yields an error. The
/// frame's payload is copied out so the caller may compact `buf`.
Result<size_t> DecodeFrame(const uint8_t* buf, size_t size, Frame* frame);

/// Status <-> wire error code mapping (kError frames).
uint32_t StatusCodeToWire(StatusCode code);
StatusCode WireToStatusCode(uint32_t code);

/// The kResultDone payload: the terminal summary of a successful stream.
struct ResultDone {
  uint64_t rows = 0;
  double execute_ms = 0;
  uint64_t pages_touched = 0;
  uint64_t tuples_emitted = 0;
  uint32_t threads = 0;
  uint8_t cache_hit = 0;
  uint64_t rows_affected = 0;
};

std::vector<uint8_t> EncodeResultDone(const ResultDone& done);

/// Every field is mandatory: a payload that ends before rows_affected (or
/// any other field) is a protocol error.
Status DecodeResultDone(const std::vector<uint8_t>& payload, ResultDone* out);

}  // namespace hique::net

#endif  // HIQUE_NET_PROTOCOL_H_
