/*
 * Flow-cache kernel: the batched cache loop of FlowCache.process_into
 * (paper Section 3.1) over a resident table held in numpy arrays.
 *
 * Per packet: a hit adds the weight and overflows at the entry
 * capacity y (the flow stays resident); a miss on a full table evicts
 * the LRU or a uniformly drawn victim before the new flow is inserted;
 * a fresh insert of weight >= y overflows outright.
 * Every eviction row is appended to the caller's EvictionBuffer
 * columns. When a row fills the buffer the kernel returns 1 so Python
 * can drain it, and the next call resumes where this one stopped. A
 * return between a victim's row and the new flow's insert leaves that
 * packet unprocessed: run again, it misses and finds the freed room.
 * The Python side (repro/cachesim/kernel.py) documents the state
 * layout; the scalar FlowCache.access path is the reference.
 * fc_rows reuses the table's index for the drain's flow -> row memo.
 * fr_pairs and fr_route are the multi-vantage fabric's router; they
 * share nothing with the cache table.
 */
#include <stdint.h>
#include <string.h>

#define NIL (-1)
#define OVERFLOW_CODE 0
#define REPLACEMENT_CODE 1
#define GOLDEN 0x9E3779B97F4A7C15ULL

typedef struct {
    int64_t num_entries;            /* M */
    int64_t capacity;               /* y */
    int64_t random;                 /* 0: LRU, 1: random replacement */
    int64_t index_shift;            /* 64 - log2(index size) */
    int64_t index_mask;             /* index size - 1 */
    int64_t size;                   /* resident entries, always in slots [0, size) */
    int64_t order_head, order_tail; /* insertion order, oldest first */
    int64_t lru_head, lru_tail;     /* recency order, least recent first */
    uint64_t *ids;                  /* [M] flow id per slot; for random replacement the
                                       slots are RandomPolicy's position array */
    int64_t *counts;                /* [M] cached count per slot */
    int32_t *order_prev, *order_next; /* [M] insertion-order links */
    int32_t *lru_prev, *lru_next;   /* [M] recency links (LRU only) */
    int32_t *index;                 /* [index size] slot + 1, 0 = empty */
} Table;

typedef struct {
    const uint64_t *packets;
    const int64_t *weights;         /* NULL: every packet weighs 1 */
    int64_t n;
    int64_t pos;                    /* next packet */
    int64_t hits;
    const int64_t *draws;           /* random: victim slots, in draw order */
    int64_t draws_len, draws_used;
    uint64_t *out_ids;
    int64_t *out_values;
    uint8_t *out_reasons;
    int64_t out_len, out_cap;
} Chunk;

static inline int64_t home(const Table *t, uint64_t id)
{
    return (int64_t)((id * GOLDEN) >> t->index_shift);
}

static inline int64_t find(const Table *t, uint64_t id)
{
    int64_t h = home(t, id);
    for (;;) {
        int32_t e = t->index[h];
        if (e == 0)
            return NIL;
        if (t->ids[e - 1] == id)
            return e - 1;
        h = (h + 1) & t->index_mask;
    }
}

static inline void index_put(Table *t, uint64_t id, int64_t slot)
{
    int64_t h = home(t, id);
    while (t->index[h])
        h = (h + 1) & t->index_mask;
    t->index[h] = (int32_t)(slot + 1);
}

/* Linear-probing delete by backward shift: no tombstones, so probe
 * lengths stay those of a table that never saw the deleted key. */
static inline void index_del(Table *t, uint64_t id)
{
    const int64_t mask = t->index_mask;
    int64_t hole = home(t, id);
    while (t->ids[t->index[hole] - 1] != id)
        hole = (hole + 1) & mask;
    for (int64_t j = (hole + 1) & mask; t->index[j]; j = (j + 1) & mask) {
        int32_t e = t->index[j];
        /* The entry may fill the hole when the hole lies on its probe path. */
        if (((j - home(t, t->ids[e - 1])) & mask) >= ((j - hole) & mask)) {
            t->index[hole] = e;
            hole = j;
        }
    }
    t->index[hole] = 0;
}

static inline void unlink_slot(int32_t *prev, int32_t *next, int64_t *head, int64_t *tail,
                               int64_t s)
{
    int32_t p = prev[s], n = next[s];
    if (p == NIL)
        *head = n;
    else
        next[p] = n;
    if (n == NIL)
        *tail = p;
    else
        prev[n] = p;
}

static inline void append_slot(int32_t *prev, int32_t *next, int64_t *head, int64_t *tail,
                               int64_t s)
{
    prev[s] = (int32_t)*tail;
    next[s] = NIL;
    if (*tail == NIL)
        *head = s;
    else
        next[*tail] = (int32_t)s;
    *tail = s;
}

/* Point a list's neighbours of slot `from` at slot `to` instead. */
static inline void relink_slot(int32_t *prev, int32_t *next, int64_t *head, int64_t *tail,
                               int64_t from, int64_t to)
{
    int32_t p = prev[from], n = next[from];
    prev[to] = p;
    next[to] = n;
    if (p == NIL)
        *head = to;
    else
        next[p] = (int32_t)to;
    if (n == NIL)
        *tail = to;
    else
        prev[n] = (int32_t)to;
}

static inline void evict_slot(Table *t, int64_t s)
{
    index_del(t, t->ids[s]);
    unlink_slot(t->order_prev, t->order_next, &t->order_head, &t->order_tail, s);
    if (!t->random)
        unlink_slot(t->lru_prev, t->lru_next, &t->lru_head, &t->lru_tail, s);
    /* Move the entry in the last slot into the hole (RandomPolicy.remove's
     * swap-with-last), so the resident entries stay in slots [0, size). */
    int64_t last = --t->size;
    if (s == last)
        return;
    const uint64_t id = t->ids[last];
    t->ids[s] = id;
    t->counts[s] = t->counts[last];
    int64_t h = home(t, id);
    while (t->index[h] != last + 1)
        h = (h + 1) & t->index_mask;
    t->index[h] = (int32_t)(s + 1);
    relink_slot(t->order_prev, t->order_next, &t->order_head, &t->order_tail, last, s);
    if (!t->random)
        relink_slot(t->lru_prev, t->lru_next, &t->lru_head, &t->lru_tail, last, s);
}

static inline int64_t insert(Table *t, uint64_t id, int64_t count)
{
    int64_t s = t->size;
    t->ids[s] = id;
    t->counts[s] = count;
    index_put(t, id, s);
    append_slot(t->order_prev, t->order_next, &t->order_head, &t->order_tail, s);
    if (!t->random)
        append_slot(t->lru_prev, t->lru_next, &t->lru_head, &t->lru_tail, s);
    t->size++;
    return s;
}

/* Append one eviction row; nonzero when the buffer is now full. */
static inline int emit(Chunk *c, uint64_t id, int64_t value, uint8_t reason)
{
    int64_t n = c->out_len;
    c->out_ids[n] = id;
    c->out_values[n] = value;
    c->out_reasons[n] = reason;
    c->out_len = n + 1;
    return c->out_len == c->out_cap;
}

void fc_clear(Table *t)
{
    t->size = 0;
    t->order_head = t->order_tail = NIL;
    t->lru_head = t->lru_tail = NIL;
    memset(t->index, 0, (size_t)(t->index_mask + 1) * sizeof(int32_t));
}

/* Run packets [pos, n) of the chunk. Returns 0 when the chunk is done,
 * 1 when an eviction row filled the buffer (drain it, then call again),
 * and -1 if the look-ahead draws ran out (a caller bug). The buffer
 * must have room for one row on entry. */
int64_t fc_run(Table *t, Chunk *c)
{
    const int64_t y = t->capacity;
    const uint64_t *packets = c->packets;
    const int64_t *weights = c->weights;
    const int64_t n = c->n;
    int64_t pos = c->pos, hits = c->hits, status = 0;
    for (; pos < n; pos++) {
        const uint64_t id = packets[pos];
        const int64_t w = weights ? weights[pos] : 1;
        int64_t s = find(t, id);
        if (s != NIL) {
            hits++;
            if (!t->random && s != t->lru_tail) {
                unlink_slot(t->lru_prev, t->lru_next, &t->lru_head, &t->lru_tail, s);
                append_slot(t->lru_prev, t->lru_next, &t->lru_head, &t->lru_tail, s);
            }
            int64_t cur = t->counts[s] + w;
            if (cur >= y) {
                t->counts[s] = 0;
                if (emit(c, id, cur, OVERFLOW_CODE)) {
                    pos++;
                    status = 1;
                    break;
                }
            } else {
                t->counts[s] = cur;
            }
            continue;
        }
        if (t->size >= t->num_entries) {
            int64_t v;
            if (t->random) {
                if (c->draws_used >= c->draws_len) {
                    status = -1;
                    break;
                }
                v = c->draws[c->draws_used++];
            } else {
                v = t->lru_head;
            }
            const uint64_t victim = t->ids[v];
            const int64_t value = t->counts[v];
            evict_slot(t, v);
            /* A full buffer stops before the insert; rerun, this packet
             * misses again and takes the freed room. */
            if (value > 0 && emit(c, victim, value, REPLACEMENT_CODE)) {
                status = 1;
                break;
            }
        }
        s = insert(t, id, w);
        if (w >= y) {
            t->counts[s] = 0;
            if (emit(c, id, w, OVERFLOW_CODE)) {
                pos++;
                status = 1;
                break;
            }
        }
    }
    c->pos = pos;
    c->hits = hits;
    return status;
}

/* Rebuild the table from n entries in insertion order plus the policy
 * order (LRU: least recent first; random: RandomPolicy's position
 * array, which becomes the slot order). Returns -1 if the ids repeat
 * or the policy order is not a permutation of them. */
int64_t fc_load(Table *t, const uint64_t *ids, const int64_t *counts, int64_t n,
                const uint64_t *policy_order)
{
    const int32_t unlinked = -2;
    fc_clear(t);
    if (n > t->num_entries)
        return -1;
    const uint64_t *by_slot = t->random ? policy_order : ids;
    for (int64_t i = 0; i < n; i++) {
        if (find(t, by_slot[i]) != NIL)
            return -1;
        t->ids[i] = by_slot[i];
        index_put(t, by_slot[i], i);
        t->order_next[i] = unlinked;
        if (!t->random)
            t->lru_next[i] = unlinked;
    }
    t->size = n;
    for (int64_t i = 0; i < n; i++) {
        int64_t s = find(t, ids[i]);
        if (s == NIL || t->order_next[s] != unlinked)
            return -1;
        t->counts[s] = counts[i];
        append_slot(t->order_prev, t->order_next, &t->order_head, &t->order_tail, s);
    }
    if (t->random)
        return 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t s = find(t, policy_order[i]);
        if (s == NIL || t->lru_next[s] != unlinked)
            return -1;
        append_slot(t->lru_prev, t->lru_next, &t->lru_head, &t->lru_tail, s);
    }
    return 0;
}

/* Index-memo probe (the batched drain's flow -> row lookup). The memo
 * keeps each distinct flow id once, in first-seen order, in
 * t->ids[0, size), indexed like a resident table; only the ids, index
 * and size fields are used. Writes each of the n ids' row to rows,
 * appending unseen ids in first-occurrence order. The caller
 * guarantees room for n more ids. */
void fc_rows(Table *t, const uint64_t *ids, int64_t n, int64_t *rows)
{
    for (int64_t i = 0; i < n; i++) {
        const uint64_t id = ids[i];
        int64_t s = find(t, id);
        if (s == NIL) {
            s = t->size++;
            t->ids[s] = id;
            index_put(t, id, s);
        }
        rows[i] = s;
    }
}

/* Inverse of fc_load: entries in insertion order, then the policy order. */
void fc_export(const Table *t, uint64_t *ids, int64_t *counts, uint64_t *policy_order)
{
    int64_t i = 0;
    for (int64_t s = t->order_head; s != NIL; s = t->order_next[s], i++) {
        ids[i] = t->ids[s];
        counts[i] = t->counts[s];
    }
    if (t->random) {
        memcpy(policy_order, t->ids, (size_t)t->size * sizeof(uint64_t));
    } else {
        i = 0;
        for (int64_t s = t->lru_head; s != NIL; s = t->lru_next[s], i++)
            policy_order[i] = t->ids[s];
    }
}


/* Fabric router (repro/fabric/topology.py documents the model). A
 * flow's (ingress, egress) pair is two splitmix64 hashes reduced by
 * the entry and exit counts; the pair's route is a run of node ids in
 * a CSR table. Every node on the route observes the packet, unless the
 * node samples and the packet's global index fails its test. */

#define SM_M1 0xBF58476D1CE4E5B9ULL
#define SM_M2 0x94D049BB133111EBULL
/* A sample limit of 2^53 keeps every packet, with no hash. */
#define KEEP_ALL (1ULL << 53)

typedef struct {
    uint64_t entry_seed, exit_seed; /* attachment hashes: splitmix64(seed ^ id) */
    uint64_t num_entries, num_exits;
    const int64_t *route_start;     /* [pairs + 1] pair p's nodes are */
    const int64_t *route_nodes;     /* route_nodes[route_start[p], route_start[p + 1]) */
} Routes;

static inline uint64_t splitmix64(uint64_t x)
{
    x += GOLDEN;
    x = (x ^ (x >> 30)) * SM_M1;
    x = (x ^ (x >> 27)) * SM_M2;
    return x ^ (x >> 31);
}

/* Each of the n ids' attachment pair, ingress * num_exits + egress.
 * With counts (one per pair, zeroed by the caller), also how many of
 * the ids each pair got. */
void fr_pairs(const Routes *r, const uint64_t *restrict ids, int64_t n, int64_t *restrict pairs,
              int64_t *restrict counts)
{
    const uint64_t entry_seed = r->entry_seed, exit_seed = r->exit_seed;
    const uint64_t num_entries = r->num_entries, num_exits = r->num_exits;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t id = ids[i];
        const int64_t p = (int64_t)(splitmix64(entry_seed ^ id) % num_entries * num_exits
                                    + splitmix64(exit_seed ^ id) % num_exits);
        pairs[i] = p;
        if (counts)
            counts[p]++;
    }
}

/* Append each packet (and its length, if lengths is not NULL) to the
 * substream of every node on its pair's route, in stream order: node
 * v's next row is out_ids[v][counts[v]++] (counts zeroed by the
 * caller). Packet i's global index is offset + i; node v keeps it iff
 * splitmix64(seeds[v] ^ index) >> 11 < limits[v]. NULL limits keep
 * everything. */
void fr_route(const Routes *r, const uint64_t *restrict ids, const int64_t *restrict lengths,
              int64_t n, uint64_t offset, const int64_t *restrict pairs,
              const uint64_t *restrict seeds, const uint64_t *restrict limits,
              int64_t *restrict counts, uint64_t *const *out_ids, int64_t *const *out_lengths)
{
    const int64_t *restrict start = r->route_start;
    const int64_t *restrict nodes = r->route_nodes;
    for (int64_t i = 0; i < n; i++) {
        const int64_t p = pairs[i];
        const uint64_t id = ids[i];
        for (int64_t j = start[p], end = start[p + 1]; j < end; j++) {
            const int64_t v = nodes[j];
            if (limits && limits[v] < KEEP_ALL
                && splitmix64(seeds[v] ^ (offset + (uint64_t)i)) >> 11 >= limits[v])
                continue;
            const int64_t c = counts[v]++;
            out_ids[v][c] = id;
            if (lengths)
                out_lengths[v][c] = lengths[i];
        }
    }
}
