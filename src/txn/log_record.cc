#include "txn/log_record.h"

#include "storage/compression.h"  // varint helpers
#include "util/fnv1a.h"

namespace ecodb::txn {

using storage::GetVarint;
using storage::PutVarint;

void LogRecord::SerializeTo(std::vector<uint8_t>* out) const {
  // Body: [lsn][txn][type][space][page][slot][before len+bytes][after ...]
  std::vector<uint8_t> body;
  PutVarint(lsn, &body);
  PutVarint(txn_id, &body);
  body.push_back(static_cast<uint8_t>(type));
  PutVarint(page.space_id, &body);
  PutVarint(page.page_no, &body);
  PutVarint(slot, &body);
  PutVarint(before.size(), &body);
  body.insert(body.end(), before.begin(), before.end());
  PutVarint(after.size(), &body);
  body.insert(body.end(), after.begin(), after.end());

  // Frame: [body_len varint][body][checksum 8 bytes LE]
  PutVarint(body.size(), out);
  out->insert(out->end(), body.begin(), body.end());
  const uint64_t sum = Fnv1a(body.data(), body.size());
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(sum >> (8 * i)));
  }
}

StatusOr<LogRecord> LogRecord::Deserialize(const std::vector<uint8_t>& buf,
                                           size_t* pos) {
  uint64_t body_len = 0;
  if (!GetVarint(buf, pos, &body_len)) {
    return Status::DataLoss("log frame length truncated");
  }
  if (*pos + body_len + 8 > buf.size()) {
    return Status::DataLoss("log frame body truncated");
  }
  const size_t body_start = *pos;
  uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) {
    expect |= static_cast<uint64_t>(buf[body_start + body_len + i])
              << (8 * i);
  }
  if (Fnv1a(buf.data() + body_start, body_len) != expect) {
    return Status::DataLoss("log frame checksum mismatch");
  }

  LogRecord rec;
  size_t p = body_start;
  const size_t body_end = body_start + body_len;
  uint64_t v = 0;
  if (!GetVarint(buf, &p, &v) || p > body_end) {
    return Status::DataLoss("log lsn truncated");
  }
  rec.lsn = v;
  if (!GetVarint(buf, &p, &v) || p > body_end) {
    return Status::DataLoss("log txn truncated");
  }
  rec.txn_id = v;
  if (p >= body_end) return Status::DataLoss("log type truncated");
  rec.type = static_cast<LogRecordType>(buf[p++]);
  if (!GetVarint(buf, &p, &v)) return Status::DataLoss("log space truncated");
  rec.page.space_id = static_cast<uint32_t>(v);
  if (!GetVarint(buf, &p, &v)) return Status::DataLoss("log page truncated");
  rec.page.page_no = static_cast<uint32_t>(v);
  if (!GetVarint(buf, &p, &v)) return Status::DataLoss("log slot truncated");
  rec.slot = static_cast<uint16_t>(v);
  uint64_t blen = 0;
  if (!GetVarint(buf, &p, &blen) || p + blen > body_end) {
    return Status::DataLoss("log before-image truncated");
  }
  rec.before.assign(buf.begin() + static_cast<long>(p),
                    buf.begin() + static_cast<long>(p + blen));
  p += blen;
  uint64_t alen = 0;
  if (!GetVarint(buf, &p, &alen) || p + alen > body_end) {
    return Status::DataLoss("log after-image truncated");
  }
  rec.after.assign(buf.begin() + static_cast<long>(p),
                   buf.begin() + static_cast<long>(p + alen));
  p += alen;
  if (p != body_end) return Status::DataLoss("log frame trailing bytes");
  *pos = body_end + 8;
  return rec;
}

}  // namespace ecodb::txn
