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
 * fc_rows reuses the table's index for the drain's flow -> row memo,
 * and fc_land lands a whole drained chunk on the SRAM through it.
 * fr_pairs and fr_route are the multi-vantage fabric's router; they
 * share nothing with the cache table. sm_owners is the sharded
 * ingest's flow -> shard map; fr_route over one-node routes scatters
 * a chunk by its owners. fu_fuse is the fabric's query-time fusion.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NIL (-1)
#define OVERFLOW_CODE 0
#define REPLACEMENT_CODE 1
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define SM_M1 0xBF58476D1CE4E5B9ULL
#define SM_M2 0x94D049BB133111EBULL

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

/* The hash of HashFamily (repro/hashing/mix.py): h_r(x) = splitmix64(seeds[r] ^ x). */
static inline uint64_t splitmix64(uint64_t x)
{
    x += GOLDEN;
    x = (x ^ (x >> 30)) * SM_M1;
    x = (x ^ (x >> 27)) * SM_M2;
    return x ^ (x >> 31);
}

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

/* The batched drain's land (paper Section 3.1; Caesar._drain in
 * repro/core/caesar.py is the caller). Each row's value v = p*k + q
 * adds p to each of its flow's k counters and one unit per remainder
 * slot: the next q slots of the caller's draw when random, else the
 * first q counters. A flow the memo appends gets bank r's counter
 * r * bank_size + splitmix64(seeds[r] ^ id) % bank_size, the formula
 * of BankedIndexer.indices. */
typedef struct {
    int64_t k;
    int64_t bank_size;
    const uint64_t *seeds;          /* [k] bank hash seeds; NULL: every id is memoized */
    int64_t *indices;               /* [memo capacity * k] each memo row's counters */
    int64_t *counters;              /* [k * bank_size] the SRAM */
    int64_t capacity;               /* counter ceiling */
    const uint64_t *ids;            /* [n] the chunk's flows */
    const int64_t *values;          /* [n] their evicted values, all >= 0 */
    int64_t n;
    int64_t random;                 /* 1: remainder units go to slots, 0: to the first q */
    const int64_t *slots;           /* random: every row's remainder slots, in draw order */
    int64_t clipped;                /* out: mass the ceiling discarded */
} Land;

/* Add as numpy's int64 add does: wrapping, never signed overflow. */
static inline int64_t add_wrapping(int64_t *c, uint64_t amount)
{
    return *c = (int64_t)((uint64_t)*c + amount);
}

/* Land the chunk: find or append each row's flow in the memo, in
 * first-occurrence order as fc_rows does (with seeds, the caller
 * reserved room for n more ids and index rows), and add its parts.
 * Then, as BankedCounterArray.add_at does, every counter the chunk
 * touched that ends above the ceiling is clipped once and its excess
 * summed into clipped; a zero part counts as a touch. Unchecked here:
 * the caller makes every index fit the counters and draws each row's
 * q slots in [0, k). Returns 0, or -1 if seeds is NULL and an id is
 * not memoized. */
int64_t fc_land(Table *memo, Land *l)
{
    const int64_t k = l->k, n = l->n, cap = l->capacity;
    int64_t *const counters = l->counters;
    const int64_t *slot = l->random ? l->slots : NULL;
    int64_t over = 0;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t id = l->ids[i];
        int64_t s = find(memo, id);
        if (s == NIL) {
            if (!l->seeds)
                return -1;
            s = memo->size++;
            memo->ids[s] = id;
            index_put(memo, id, s);
            int64_t *fresh = l->indices + s * k;
            for (int64_t r = 0; r < k; r++)
                fresh[r] = r * l->bank_size
                           + (int64_t)(splitmix64(l->seeds[r] ^ id) % (uint64_t)l->bank_size);
        }
        const int64_t *row = l->indices + s * k;
        const uint64_t v = (uint64_t)l->values[i];
        const uint64_t part = v / (uint64_t)k, q = v % (uint64_t)k;
        for (int64_t r = 0; r < k; r++)
            over |= add_wrapping(&counters[row[r]], part + (!slot && (uint64_t)r < q)) > cap;
        if (slot)
            for (uint64_t j = 0; j < q; j++)
                over |= add_wrapping(&counters[row[*slot++]], 1) > cap;
    }
    uint64_t clipped = 0;
    /* A counter's last add is followed by a check, so no flag means no
     * counter ends above the ceiling. */
    for (int64_t i = 0; over && i < n; i++) {
        const int64_t *row = l->indices + find(memo, l->ids[i]) * k;
        for (int64_t r = 0; r < k; r++) {
            int64_t *c = &counters[row[r]];
            if (*c > cap) {
                clipped += (uint64_t)*c - (uint64_t)cap;
                *c = cap;
            }
        }
    }
    l->clipped = (int64_t)clipped;
    return 0;
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

/* A sample limit of 2^53 keeps every packet, with no hash. */
#define KEEP_ALL (1ULL << 53)

typedef struct {
    uint64_t entry_seed, exit_seed; /* attachment hashes: splitmix64(seed ^ id) */
    uint64_t num_entries, num_exits;
    const int64_t *route_start;     /* [pairs + 1] pair p's nodes are */
    const int64_t *route_nodes;     /* route_nodes[route_start[p], route_start[p + 1]) */
} Routes;

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


/* Shard map (repro/runtime/partitioner.py, ShardMap, documents the
 * model). A flow's base owner is splitmix64(seeds[0] ^ id) % num_base,
 * a mask when num_base is a power of two (the same owners); then split
 * k, in chain order, moves the flow from donors[k] to the new shard
 * num_base + k iff splitmix64(seeds[k + 1] ^ id) is odd. A shard map is
 * a one-hop route: fr_route over routes {0}, {1}, ... with the owners
 * as pairs scatters a chunk by shard. */
typedef struct {
    uint64_t num_base;
    int64_t num_splits;
    const uint64_t *seeds;          /* [1 + num_splits] */
    const int64_t *donors;          /* [num_splits] */
} Shards;

/* Each of the n ids' owner. With counts (one per shard, zeroed by the
 * caller), also how many of the ids each shard owns. */
void sm_owners(const Shards *m, const uint64_t *restrict ids, int64_t n,
               int64_t *restrict owners, int64_t *restrict counts)
{
    const uint64_t base = m->num_base, mask = base - 1, seed = m->seeds[0];
    const int64_t num_splits = m->num_splits;
    const uint64_t *restrict split_seeds = m->seeds + 1;
    const int64_t *restrict donors = m->donors;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t id = ids[i];
        uint64_t h = base == 1 ? 0 : splitmix64(seed ^ id);
        int64_t o = (int64_t)((base & mask) == 0 ? h & mask : h % base);
        for (int64_t k = 0; k < num_splits; k++)
            if (o == donors[k] && (splitmix64(split_seeds[k] ^ id) & 1))
                o = (int64_t)base + k;
        owners[i] = o;
        if (counts)
            counts[o]++;
    }
}


/* Query-time fusion (repro/fabric/fusion.py documents the estimators).
 * est[v][f], slopes[v][f] and floors[v][f] are vantage v's estimate of
 * flow f and the slope and floor of its variance, the vantages in id
 * order; a vantage whose estimate is not finite did not observe the
 * flow. A flow with no finite estimate fuses to NaN, and one with a
 * single finite estimate e to 0.0 + e. Any other flow takes a weighted
 * mean x = sum(w * e) / sum(w), NaN unless sum(w) > 0, with
 * w = 1 / max(var, min_variance) and var = slope * max(h, 0) + floor:
 * the first pass puts each vantage's own estimate in h, and each of
 * the next `passes` the previous pass's x (0 if x is not finite).
 * Every sum starts from +0.0 and adds in vantage order, the order of
 * numpy's axis-0 sum over two or more flows. A flow stops once x
 * repeats bit for bit, since every later pass would repeat it too. */

/* numpy's maximum(x, lo) for a number lo: the larger, a NaN x kept. */
static inline double at_least(double x, double lo)
{
    return x < lo ? lo : x;
}

static inline double weighted_mean(const double *const *est, const double *const *slopes,
                                   const double *const *floors, int64_t num_vantages, int64_t f,
                                   const double *h, double min_variance)
{
    double num = 0.0, den = 0.0;
    for (int64_t v = 0; v < num_vantages; v++) {
        const double e = est[v][f];
        if (!isfinite(e))
            continue;
        const double x = h ? *h : e;
        const double w = 1.0 / at_least(slopes[v][f] * (isfinite(x) && x > 0.0 ? x : 0.0)
                                            + floors[v][f],
                                        min_variance);
        den += w;
        num += w * e;
    }
    return num / (den > 0.0 ? den : NAN);
}

void fu_fuse(const double *const *est, const double *const *slopes, const double *const *floors,
             int64_t num_vantages, int64_t n, int64_t passes, double min_variance,
             double *restrict out)
{
    for (int64_t f = 0; f < n; f++) {
        int64_t seen = 0;
        double only = 0.0;
        for (int64_t v = 0; v < num_vantages; v++) {
            const double e = est[v][f];
            if (isfinite(e)) {
                seen++;
                only += e;
            }
        }
        if (seen < 2) {
            out[f] = seen ? only : NAN;
            continue;
        }
        double x = weighted_mean(est, slopes, floors, num_vantages, f, NULL, min_variance);
        for (int64_t p = 0; p < passes; p++) {
            const double next = weighted_mean(est, slopes, floors, num_vantages, f, &x,
                                              min_variance);
            uint64_t a, b;
            memcpy(&a, &x, sizeof a);
            memcpy(&b, &next, sizeof b);
            x = next;
            if (a == b)
                break;
        }
        out[f] = x;
    }
}
