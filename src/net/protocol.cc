#include "net/protocol.h"

namespace hique::net {

Status WireReader::ReadLE(int bytes, uint64_t* out) {
  if (remaining() < static_cast<size_t>(bytes)) {
    return Status::IoError("truncated frame payload");
  }
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += bytes;
  *out = v;
  return Status::OK();
}

Status WireReader::U8(uint8_t* out) {
  uint64_t v;
  HQ_RETURN_IF_ERROR(ReadLE(1, &v));
  *out = static_cast<uint8_t>(v);
  return Status::OK();
}

Status WireReader::U16(uint16_t* out) {
  uint64_t v;
  HQ_RETURN_IF_ERROR(ReadLE(2, &v));
  *out = static_cast<uint16_t>(v);
  return Status::OK();
}

Status WireReader::U32(uint32_t* out) {
  uint64_t v;
  HQ_RETURN_IF_ERROR(ReadLE(4, &v));
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

Status WireReader::U64(uint64_t* out) { return ReadLE(8, out); }

Status WireReader::I32(int32_t* out) {
  uint32_t v;
  HQ_RETURN_IF_ERROR(U32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status WireReader::I64(int64_t* out) {
  uint64_t v;
  HQ_RETURN_IF_ERROR(U64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status WireReader::F64(double* out) {
  uint64_t bits;
  HQ_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::Str(std::string* out) {
  uint32_t len;
  HQ_RETURN_IF_ERROR(U32(&len));
  if (remaining() < len) return Status::IoError("truncated frame payload");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::Bytes(size_t n, const uint8_t** out) {
  if (remaining() < n) return Status::IoError("truncated frame payload");
  *out = data_ + pos_;
  pos_ += n;
  return Status::OK();
}

void EncodeFrame(MsgType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) out->push_back((len >> (8 * i)) & 0xff);
  out->push_back(static_cast<uint8_t>(type));
  out->insert(out->end(), payload.begin(), payload.end());
}

Result<size_t> DecodeFrame(const uint8_t* buf, size_t size, Frame* frame) {
  if (size < kFrameHeaderSize) return size_t{0};
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(buf[i]) << (8 * i);
  }
  if (len > kMaxPayload) {
    return Status::IoError("frame payload exceeds protocol maximum (" +
                           std::to_string(len) + " bytes)");
  }
  if (size < kFrameHeaderSize + len) return size_t{0};
  frame->type = static_cast<MsgType>(buf[4]);
  frame->payload.assign(buf + kFrameHeaderSize, buf + kFrameHeaderSize + len);
  return kFrameHeaderSize + len;
}

uint32_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint32_t>(code);
}

StatusCode WireToStatusCode(uint32_t code) {
  if (code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(code);
}

std::vector<uint8_t> EncodeResultDone(const ResultDone& done) {
  WireWriter w;
  w.U64(done.rows);
  w.F64(done.execute_ms);
  w.U64(done.pages_touched);
  w.U64(done.tuples_emitted);
  w.U32(done.threads);
  w.U8(done.cache_hit);
  w.U64(done.rows_affected);
  return w.Take();
}

Status DecodeResultDone(const std::vector<uint8_t>& payload,
                        ResultDone* out) {
  WireReader r(payload);
  HQ_RETURN_IF_ERROR(r.U64(&out->rows));
  HQ_RETURN_IF_ERROR(r.F64(&out->execute_ms));
  HQ_RETURN_IF_ERROR(r.U64(&out->pages_touched));
  HQ_RETURN_IF_ERROR(r.U64(&out->tuples_emitted));
  HQ_RETURN_IF_ERROR(r.U32(&out->threads));
  HQ_RETURN_IF_ERROR(r.U8(&out->cache_hit));
  return r.U64(&out->rows_affected);
}

}  // namespace hique::net
