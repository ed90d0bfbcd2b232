/* The edge file's section codec: every segment verified and gathered, or
 * laid out and checksummed, in one call.
 *
 * A segment is [checkpoint][activities][crc(cp) crc(act)], the two CRC-32s
 * little-endian.
 *
 *   scan_sections(data, size, offset, cp_len, act_len, n, gather,
 *                 cp_out, cp_cap, act_out, act_cap)
 *       Segment i has cp_len[i] checkpoint bytes at data + offset[i] and
 *       act_len[i] activity bytes after them; its trailer must hold the CRCs
 *       of both. With gather, the sections are copied back to back into
 *       cp_out / act_out. Returns the first segment whose trailer does not
 *       match (n when all do).
 *   pack_sections(cp, cp_size, act, act_size, cp_len, act_len, n,
 *                 out, out_size)
 *       The mirror for the writer: out receives segment i as the next
 *       cp_len[i] bytes of cp, the next act_len[i] bytes of act and their
 *       trailer. Returns 0.
 *
 * The CRC is zlib's (reflected polynomial 0xEDB88320, initial value and final
 * XOR 0xFFFFFFFF), table-driven eight bytes at a time, so it equals
 * zlib.crc32 bit for bit. Every range is checked against its buffer before
 * it is touched: a range that does not fit is a return of -1, never a read
 * or write outside the caller's arrays.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef ptrdiff_t idx_t; /* numpy.intp */

#define TRAILER 8

static uint32_t crc_table[8][256];

__attribute__((constructor)) static void crc_tables(void)
{
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        crc_table[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (int t = 1; t < 8; ++t)
            crc_table[t][i] = (crc_table[t - 1][i] >> 8)
                              ^ crc_table[0][crc_table[t - 1][i] & 0xFF];
}

static uint32_t load_le32(const uint8_t *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
           | (uint32_t)p[3] << 24;
}

static void store_le32(uint8_t *p, uint32_t v)
{
    p[0] = (uint8_t)v;
    p[1] = (uint8_t)(v >> 8);
    p[2] = (uint8_t)(v >> 16);
    p[3] = (uint8_t)(v >> 24);
}

static uint32_t crc32(const uint8_t *p, int64_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (; n >= 8; p += 8, n -= 8) {
        const uint32_t lo = load_le32(p) ^ c, hi = load_le32(p + 4);
        c = crc_table[7][lo & 0xFF] ^ crc_table[6][(lo >> 8) & 0xFF]
            ^ crc_table[5][(lo >> 16) & 0xFF] ^ crc_table[4][lo >> 24]
            ^ crc_table[3][hi & 0xFF] ^ crc_table[2][(hi >> 8) & 0xFF]
            ^ crc_table[1][(hi >> 16) & 0xFF] ^ crc_table[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = (c >> 8) ^ crc_table[0][(c ^ *p) & 0xFF];
    return c ^ 0xFFFFFFFFu;
}

idx_t scan_sections(const uint8_t *data, int64_t size, const int64_t *offset,
                    const int64_t *cp_len, const int64_t *act_len, idx_t n,
                    int gather, uint8_t *cp_out, int64_t cp_cap,
                    uint8_t *act_out, int64_t act_cap)
{
    int64_t cp_at = 0, act_at = 0;
    for (idx_t i = 0; i < n; ++i) {
        const int64_t at = offset[i], cl = cp_len[i], al = act_len[i];
        if (at < 0 || cl < 0 || al < 0 || at > size || cl > size - at
            || al > size - at - cl || TRAILER > size - at - cl - al)
            return -1;
        const uint8_t *cp = data + at, *act = cp + cl;
        if (crc32(cp, cl) != load_le32(act + al)
            || crc32(act, al) != load_le32(act + al + 4))
            return i;
        if (gather) {
            if (cl > cp_cap - cp_at || al > act_cap - act_at)
                return -1;
            memcpy(cp_out + cp_at, cp, (size_t)cl);
            memcpy(act_out + act_at, act, (size_t)al);
            cp_at += cl;
            act_at += al;
        }
    }
    return n;
}

int pack_sections(const uint8_t *cp, int64_t cp_size, const uint8_t *act,
                  int64_t act_size, const int64_t *cp_len,
                  const int64_t *act_len, idx_t n, uint8_t *out,
                  int64_t out_size)
{
    int64_t cp_at = 0, act_at = 0, at = 0;
    for (idx_t i = 0; i < n; ++i) {
        const int64_t cl = cp_len[i], al = act_len[i];
        if (cl < 0 || al < 0 || cl > cp_size - cp_at
            || al > act_size - act_at || cl > out_size - at
            || al > out_size - at - cl || TRAILER > out_size - at - cl - al)
            return -1;
        memcpy(out + at, cp + cp_at, (size_t)cl);
        memcpy(out + at + cl, act + act_at, (size_t)al);
        store_le32(out + at + cl + al, crc32(cp + cp_at, cl));
        store_le32(out + at + cl + al + 4, crc32(act + act_at, al));
        cp_at += cl;
        act_at += al;
        at += cl + al + TRAILER;
    }
    return cp_at == cp_size && act_at == act_size && at == out_size ? 0 : -1;
}
