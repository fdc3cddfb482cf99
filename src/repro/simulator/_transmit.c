/*
 * Transmission phase of the batch engine (repro.simulator.batch).
 *
 * Runs the object engine's transmit model directly on the batch
 * engine's flat arrays, one lane after another.  Per lane, the channels
 * holding a reserved VC are polled in ascending active-set sequence
 * (the order the object engine inserts them into its active set); a
 * poll picks the first ready VC in mux order and moves one flit, and
 * every move commits at once, so later polls see live state.  Under
 * ideal flow control a slot freed earlier in the cycle can be reused,
 * so passes over the channels that have not moved yet repeat until one
 * moves nothing; conservative flow control tests space against the
 * start-of-cycle snapshot and needs a single pass.
 *
 * Each move that has a consequence outside the arrays (route request,
 * delivery, injection complete, upstream release) is recorded as an
 * event, lane-major in move order, for the Python epilogue.
 *
 * Integer-only and free of libc calls: built with the host C compiler
 * as `cc -O2 -shared -fPIC` by repro.simulator.ckernel.
 */
#include <stdint.h>

/* Event code bits (read by the epilogues in batch.py). */
#define EV_ROUTE 1   /* head reached an intermediate router */
#define EV_DELIVER 2 /* head reached the destination */
#define EV_INJECTED 4 /* the source injected its last flit */
#define EV_RELEASE 8 /* the tail left the upstream VC */

/* Field order and types mirror TransmitState in ckernel.py. */
typedef struct {
    int64_t lanes, channels, vcs, cap, length, priority, ideal;
    /* per VC, [lanes * channels * vcs] */
    uint8_t *txable; /* reserved and the worm not fully received */
    int16_t *occ, *fin, *fout, *inject;
    int32_t *la, *ld;
    int64_t *carried;
    int32_t *up; /* upstream flat index within the lane, -1 at the source */
    uint8_t *front, *isdst;
    int64_t *owner; /* message id (strict) or slab slot (relaxed), -1 free */
    /* per channel, [lanes * channels] */
    int32_t *rr_next, *last_tx;
    int64_t *ch_moved, *active_seq;
    /* per lane */
    uint8_t *lane_on;
    int64_t *lane_moves;
    /* poll order kept across calls: order[b * channels + i] for
       i < order_len[b]; listed[b * channels + c] is the active_seq a
       listed channel had when it was listed, -1 when not listed */
    int32_t *order;
    int64_t *order_len, *listed;
    int32_t *fresh; /* [channels] scratch */
    uint8_t *woken; /* [channels] scratch, all zero between calls */
    /* events, [lanes * channels] (a channel moves at most once) */
    int64_t *ev_lane, *ev_flat, *ev_owner, *ev_up;
    int8_t *ev_code;
    int64_t n_events;
} tx_state;

static int channel_reserved(const int64_t *owner, int64_t vcs)
{
    for (int64_t v = 0; v < vcs; v++)
        if (owner[v] >= 0)
            return 1;
    return 0;
}

/* Bring lane b's poll order up to date: keep the listed channels that
   are still reserved under the same activation, then append the newly
   activated ones.  Activation sequence numbers grow per lane, so every
   new channel sorts after every kept one. */
static int64_t update_order(tx_state *s, int64_t b)
{
    const int64_t nc = s->channels, nv = s->vcs;
    int32_t *order = s->order + b * nc;
    int64_t *listed = s->listed + b * nc;
    const int64_t *seq = s->active_seq + b * nc;
    const int64_t *owner = s->owner + b * nc * nv;
    int32_t *fresh = s->fresh;
    int64_t kept = 0, nf = 0;

    for (int64_t i = 0; i < s->order_len[b]; i++) {
        int32_t c = order[i];
        if (listed[c] == seq[c] && channel_reserved(owner + c * nv, nv))
            order[kept++] = c;
        else
            listed[c] = -1;
    }
    for (int64_t c = 0; c < nc; c++) {
        if (listed[c] >= 0 || !channel_reserved(owner + c * nv, nv))
            continue;
        int64_t j = nf++;
        while (j > 0 && seq[fresh[j - 1]] > seq[c]) {
            fresh[j] = fresh[j - 1];
            j--;
        }
        fresh[j] = (int32_t)c;
    }
    for (int64_t j = 0; j < nf; j++) {
        listed[fresh[j]] = seq[fresh[j]];
        order[kept++] = fresh[j];
    }
    s->order_len[b] = kept;
    return kept;
}

/* Poll channel c of lane b: move one flit of the first ready VC in mux
   order.  Returns 1 on a move. */
static int poll(tx_state *s, int64_t b, int64_t c, int32_t cycle,
                int32_t *slab_inj, int64_t slab_cap)
{
    const int64_t nv = s->vcs, lane_off = b * s->channels * nv;
    const int64_t ch = b * s->channels + c;
    const int64_t base = lane_off + c * nv;
    const int64_t start = s->priority ? nv - 1 : s->rr_next[ch];

    for (int64_t k = 0; k < nv; k++) {
        int64_t v;
        if (s->priority) {
            v = start - k;
        } else {
            v = start + k;
            if (v >= nv)
                v -= nv;
        }
        const int64_t a = base + v;
        if (!s->txable[a])
            continue;
        int occ = s->occ[a];
        if (s->ideal) {
            if (occ >= s->cap)
                continue;
        } else if (occ - (s->la[a] == cycle) + (s->ld[a] == cycle)
                   >= s->cap) {
            continue;
        }
        const int32_t up = s->up[a];
        int64_t ua = -1;
        if (up < 0) {
            if (s->inject[a] <= 0)
                continue;
        } else {
            ua = lane_off + up;
            if (s->occ[ua] - (s->la[ua] == cycle) <= 0)
                continue;
        }

        /* Commit: target VC and channel. */
        s->occ[a] = (int16_t)(occ + 1);
        const int fin = s->fin[a] + 1;
        s->fin[a] = (int16_t)fin;
        if (fin == s->length)
            s->txable[a] = 0;
        s->la[a] = cycle;
        s->carried[a] += 1;
        s->ch_moved[ch] += 1;
        s->last_tx[ch] = cycle;
        if (!s->priority)
            s->rr_next[ch] = (int32_t)(v + 1 == nv ? 0 : v + 1);

        /* Commit: upstream VC or source, and the event code. */
        int code = 0;
        if (fin == 1)
            code = s->isdst[a] ? EV_DELIVER : (s->front[a] ? EV_ROUTE : 0);
        if (up < 0) {
            const int left = s->inject[a] - 1;
            s->inject[a] = (int16_t)left;
            if (slab_inj != 0)
                slab_inj[b * slab_cap + s->owner[a]] += 1;
            if (left == 0)
                code |= EV_INJECTED;
        } else {
            const int up_occ = s->occ[ua] - 1;
            const int up_out = s->fout[ua] + 1;
            s->occ[ua] = (int16_t)up_occ;
            s->fout[ua] = (int16_t)up_out;
            s->ld[ua] = cycle;
            if (up_occ == 0 && up_out >= s->length)
                code |= EV_RELEASE;
            /* Ideal flow control: the slot freed in the upstream VC may
               unblock its channel within this cycle. */
            if (s->ideal)
                s->woken[up / nv] = 1;
        }
        if (code) {
            const int64_t e = s->n_events++;
            s->ev_lane[e] = b;
            s->ev_flat[e] = a - lane_off;
            s->ev_owner[e] = s->owner[a];
            s->ev_up[e] = up;
            s->ev_code[e] = (int8_t)code;
        }
        return 1;
    }
    return 0;
}

/* One transmission phase over every running lane.  slab_inj is the
   relaxed mode's per-message injected-flit column ([lanes, slab_cap],
   indexed by the owner slot), NULL in strict mode.  Returns the number
   of flits moved; per-lane counts go to lane_moves and the events to
   the ev_* arrays (n_events of them). */
int64_t repro_transmit(tx_state *s, int64_t cycle64, int32_t *slab_inj,
                       int64_t slab_cap)
{
    const int32_t cycle = (int32_t)cycle64;
    const int64_t nc = s->channels;
    int64_t total = 0;

    s->n_events = 0;
    for (int64_t b = 0; b < s->lanes; b++) {
        s->lane_moves[b] = 0;
        if (!s->lane_on[b])
            continue;
        const int64_t n = update_order(s, b);
        const int32_t *order = s->order + b * nc;
        const int32_t *last_tx = s->last_tx + b * nc;
        uint8_t *woken = s->woken;
        int64_t moved = 0, progress, pass = 0;
        do {
            /* Every pass polls, in order, each channel that has not
               moved.  After the first, only a channel woken by a freed
               slot since its last poll can succeed (settled supply
               never grows within a cycle), so only those are polled. */
            progress = 0;
            for (int64_t i = 0; i < n; i++) {
                const int64_t c = order[i];
                if (pass && !woken[c])
                    continue;
                woken[c] = 0;
                if (last_tx[c] == cycle)
                    continue; /* one flit per channel per cycle */
                progress += poll(s, b, c, cycle, slab_inj, slab_cap);
            }
            moved += progress;
            pass++;
        } while (s->ideal && progress);
        s->lane_moves[b] = moved;
        total += moved;
    }
    return total;
}
