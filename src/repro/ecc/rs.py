"""Batched Reed-Solomon codec over GF(256), vectorized across codewords.

``RsCode(n, k)`` is a systematic RS code with ``n`` total symbols, ``k``
data symbols, and ``t = (n - k) // 2`` correctable symbol errors per
codeword (first consecutive root ``fcr = 1``, generator ``alpha = 0x02``,
field polynomial ``0x11D`` — see :mod:`repro.ecc.gf256`).  Codewords are
stored data-first: index ``j`` of a codeword array is the coefficient of
``x**(n - 1 - j)``.

The decoder is written for the simulator's workload — *many* codewords
at once, most of them error-free:

- :meth:`RsCode.syndromes` evaluates all ``2t`` syndromes of an
  ``(m, n)`` batch against a precomputed log-domain power table.
- :meth:`RsCode.decode` early-exits every row whose syndromes are zero,
  then runs a fully vectorized (branchless, ``np.where``-masked)
  Berlekamp-Massey across the remaining rows, a Chien search over all
  ``n`` positions, and Forney magnitudes — finishing with a syndrome
  re-check of each corrected row, so ``ok`` *guarantees* the corrected
  row is a codeword.
- Rows may be *shortened*: ``lengths[i] < n`` declares the leading
  ``n - lengths[i]`` symbols virtual zeros, and any claimed correction
  in that region invalidates the decode (standard shortened-RS
  semantics).

``RsPageDecoder`` maps simulator pages onto the code: page bit ``b``
lands in symbol ``b // 8`` (big-endian within the byte, i.e.
``np.packbits`` order) and a page's symbols split into
``ceil(symbols / n)`` near-equal shortened codewords.  Because syndromes
are linear, the engine decodes raw *bit-error masks* directly (the true
data is the implicit all-zero codeword): a successful decode must
recover the zero word, so ``ok`` with a nonzero corrected row is a
**miscorrection** — the silent-data-corruption case a threshold model
cannot represent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc import gf256
from repro.ecc.gf256 import EXP, GROUP_ORDER, LOG

#: Rows per chunk in the dense syndrome kernel — bounds the transient
#: ``(chunk, 2t, n)`` lookup tensor to a few MB.
_SYNDROME_CHUNK = 1024


def check_rs_code(n: int, k: int) -> None:
    """Raise ``ValueError`` unless ``RS(n, k)`` is a code :class:`RsCode`
    builds: ``3 <= n <= 255``, ``1 <= k < n`` and ``n - k`` even.

    The one check of a code rate: :class:`RsCode`,
    :class:`~repro.ecc.config.EccConfig` and
    :class:`~repro.workloads.grid.BackendSpec` all call it, so a rate a
    grid accepts never fails inside a worker.
    """
    if not 3 <= n <= 255:
        raise ValueError(f"RS n must be in [3, 255], got {n}")
    if not 1 <= k < n:
        raise ValueError(f"RS k must be in [1, n), got k={k} n={n}")
    if (n - k) % 2:
        raise ValueError(
            f"RS n - k must be even (t parity symbol pairs), got n={n} k={k}"
        )


@dataclass(frozen=True)
class RsBatchResult:
    """Outcome of one batched :meth:`RsCode.decode` call."""

    #: ``(m, n)`` uint8 — the corrected words (rows with ``~ok`` are
    #: returned unmodified).
    corrected: np.ndarray
    #: ``(m,)`` bool — decoder-reported success (corrected row verified
    #: to be a codeword).
    ok: np.ndarray
    #: ``(m,)`` int64 — symbols the decoder changed (0 where ``~ok``).
    corrected_symbols: np.ndarray


@dataclass(frozen=True)
class PageMaskDecode:
    """Outcome of decoding raw page bit-error masks (see ``decode_masks``)."""

    #: ``(pages,)`` bool — every codeword of the page decoded.
    ok: np.ndarray
    #: ``(pages,)`` bool — decode "succeeded" but did not recover the
    #: true data: silent data corruption.
    miscorrected: np.ndarray
    #: ``(pages,)`` int64 — raw bit errors per page (mask popcount).
    bit_errors: np.ndarray
    #: ``(pages,)`` int64 — raw symbol errors per page.
    symbol_errors: np.ndarray
    #: ``(pages, symbols)`` uint8 — the page masks packed to symbols
    #: (kept for fault-pattern classification).
    symbols: np.ndarray


class RsCode:
    """A systematic ``RS(n, k)`` code with batched numpy decode."""

    #: First consecutive root: generator roots are alpha^1 .. alpha^2t.
    fcr = 1

    def __init__(self, n: int, k: int):
        check_rs_code(n, k)
        self.n = n
        self.k = k
        self.nparity = n - k
        self.t = (n - k) // 2
        # Generator polynomial prod_{i=1..2t} (x + alpha^i), ascending powers.
        generator = np.array([1], dtype=np.uint8)
        for i in range(1, self.nparity + 1):
            generator = gf256.poly_mul(generator, [int(gf256.alpha_power(i)), 1])
        self.generator = generator
        #: g in descending powers with the monic lead dropped — the
        #: feedback taps of the systematic-encode LFSR.
        self._lfsr_taps = generator[::-1][1:].copy()
        positions = n - 1 - np.arange(n)
        roots = np.arange(self.fcr, self.fcr + self.nparity)
        #: (2t, n) log-domain powers for the syndrome kernel:
        #: syndrome i of word w is XOR_j w[j] * alpha^(roots[i] * positions[j]).
        self._synd_log = (roots[:, None] * positions[None, :]) % GROUP_ORDER
        #: (t+1, n) log-domain powers for the Chien search:
        #: locator term i at position j is C[i] * alpha^(-i * positions[j]).
        degrees = np.arange(self.t + 1)
        self._chien_log = (-(degrees[:, None] * positions[None, :])) % GROUP_ORDER
        #: (n,) log of X_j^-1 = alpha^(-positions[j]) for Forney.
        self._xinv_log = (-positions) % GROUP_ORDER

    def __repr__(self) -> str:
        return f"RsCode(n={self.n}, k={self.k})"

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Systematically encode ``(m, k)`` data rows to ``(m, n)`` codewords.

        Parity is the remainder of ``d(x) * x^(n-k)`` by the generator,
        computed with the standard LFSR, one vectorized step per data
        symbol (the encoder is test/bench infrastructure; the simulator
        hot path only ever decodes).
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.uint8))
        if data.shape[1] != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {data.shape[1]}")
        m = data.shape[0]
        parity = np.zeros((m, self.nparity), dtype=np.uint8)
        for j in range(self.k):
            feedback = data[:, j] ^ parity[:, 0]
            parity[:, :-1] = parity[:, 1:]
            parity[:, -1] = 0
            parity ^= gf256._mul(feedback[:, None], self._lfsr_taps[None, :])
        return np.concatenate([data, parity], axis=1)

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """All ``2t`` syndromes of each row of an ``(m, n)`` batch."""
        words = np.atleast_2d(np.asarray(words, dtype=np.uint8))
        if words.shape[1] != self.n:
            raise ValueError(f"expected {self.n} symbols per word, got {words.shape[1]}")
        m = words.shape[0]
        out = np.zeros((m, self.nparity), dtype=np.uint8)
        for start in range(0, m, _SYNDROME_CHUNK):
            chunk = words[start : start + _SYNDROME_CHUNK]
            logs = LOG[chunk]  # sentinel at 0, masked below
            terms = EXP[logs[:, None, :] + self._synd_log[None, :, :]]
            terms = np.where((chunk != 0)[:, None, :], terms, 0)
            out[start : start + _SYNDROME_CHUNK] = np.bitwise_xor.reduce(terms, axis=2)
        return out

    def _berlekamp_massey(self, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Branchless batched BM: error locators for ``(m, 2t)`` syndromes.

        Returns ``(locators, lengths)`` — ``(m, 2t + 1)`` ascending-power
        locator coefficients (``locators[:, 0] == 1``) and the LFSR
        length ``L`` per row.
        """
        m = synd.shape[0]
        width = self.nparity + 1
        locator = np.zeros((m, width), dtype=np.uint8)
        locator[:, 0] = 1
        # shifted = x^shift * B, maintained incrementally so the per-row
        # shift count never materializes: every iteration multiplies it
        # by x; a length change swaps in x * (old locator) instead.
        shifted = np.zeros((m, width), dtype=np.uint8)
        shifted[:, 1] = 1
        length = np.zeros(m, dtype=np.int64)
        scale = np.ones(m, dtype=np.uint8)
        for i in range(self.nparity):
            discrepancy = synd[:, i].copy()
            for j in range(1, min(i, self.nparity) + 1):
                discrepancy ^= gf256._mul(locator[:, j], synd[:, i - j])
            # scale starts at 1 and only ever takes a nonzero discrepancy
            # (the swap below), so this divisor is never 0.
            coef = gf256._div(discrepancy, scale)  # 0 where discrepancy == 0
            updated = locator ^ gf256._mul(coef[:, None], shifted)
            swap = (discrepancy != 0) & (2 * length <= i)
            scale = np.where(swap, discrepancy, scale)
            base = np.where(swap[:, None], locator, shifted)
            length = np.where(swap, i + 1 - length, length)
            shifted = np.zeros_like(base)
            shifted[:, 1:] = base[:, :-1]
            locator = updated
        return locator, length

    def decode(
        self, words: np.ndarray, lengths: np.ndarray | None = None
    ) -> RsBatchResult:
        """Decode an ``(m, n)`` batch; see :class:`RsBatchResult`.

        ``lengths`` (optional, ``(m,)`` int) marks shortened rows: only
        the trailing ``lengths[i]`` symbols are real, the leading ones
        are virtual zeros and claimed corrections there fail the decode.
        """
        words = np.atleast_2d(np.asarray(words, dtype=np.uint8))
        m = words.shape[0]
        corrected = words.copy()
        ok = np.ones(m, dtype=bool)
        n_corrected = np.zeros(m, dtype=np.int64)
        # Early exit: all-zero rows are codewords; nonzero rows with
        # zero syndromes are handled the same way below.
        busy = np.flatnonzero(np.any(words != 0, axis=1))
        if busy.size == 0:
            return RsBatchResult(corrected, ok, n_corrected)
        synd = self.syndromes(words[busy])
        dirty = np.any(synd != 0, axis=1)
        busy = busy[dirty]
        if busy.size == 0:
            return RsBatchResult(corrected, ok, n_corrected)
        synd = synd[dirty]

        locator, length = self._berlekamp_massey(synd)
        # Candidate rows: locator degree within capability (coefficients
        # above t must all be zero, by BM deg(C) <= L <= t).
        candidate = (length >= 1) & (length <= self.t)
        candidate &= ~np.any(locator[:, self.t + 1 :] != 0, axis=1)
        ok[busy] = False  # pessimistic; proven rows flip back below
        cand = np.flatnonzero(candidate)
        if cand.size == 0:
            return RsBatchResult(corrected, ok, n_corrected)
        rows = busy[cand]  # global row ids of candidates
        loc = locator[cand][:, : self.t + 1]
        ln = length[cand]
        syn = synd[cand]

        # Chien search: evaluate the locator at alpha^(-positions[j]).
        acc = np.ones((rows.size, self.n), dtype=np.uint8)  # C[:, 0] == 1
        for i in range(1, self.t + 1):
            ci = loc[:, i]
            nonzero = ci != 0
            term = EXP[LOG[np.where(nonzero, ci, 1)][:, None] + self._chien_log[i][None, :]]
            acc ^= np.where(nonzero[:, None], term, 0)
        root_mask = acc == 0
        valid = root_mask.sum(axis=1) == ln
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            # A root in the virtual (shortened-away) prefix is a claimed
            # correction at a position that does not exist.
            positions = np.arange(self.n)
            virtual = positions[None, :] < (self.n - lengths[rows])[:, None]
            valid &= ~np.any(root_mask & virtual, axis=1)

        keep = np.flatnonzero(valid)
        if keep.size == 0:
            return RsBatchResult(corrected, ok, n_corrected)
        rows, loc, syn, root_mask = rows[keep], loc[keep], syn[keep], root_mask[keep]

        # Forney: Omega = S * Lambda mod x^2t, magnitude = Omega(Xi^-1)/Lambda'(Xi^-1).
        omega = np.zeros((rows.size, self.nparity), dtype=np.uint8)
        for i in range(self.t + 1):
            omega[:, i:] ^= gf256._mul(loc[:, i][:, None], syn[:, : self.nparity - i])
        ridx, jdx = np.nonzero(root_mask)
        xinv = EXP[self._xinv_log[jdx]]
        numerator = np.zeros(ridx.size, dtype=np.uint8)
        xpow = np.ones(ridx.size, dtype=np.uint8)
        denominator = np.zeros(ridx.size, dtype=np.uint8)
        for i in range(self.nparity):
            numerator ^= gf256._mul(omega[ridx, i], xpow)
            if i + 1 <= self.t and (i + 1) % 2 == 1:
                # Lambda'(x) = sum over odd i of C[i] x^(i-1); xpow is x^i here.
                denominator ^= gf256._mul(loc[ridx, i + 1], xpow)
            xpow = gf256._mul(xpow, xinv)
        bad_root = (denominator == 0) | (numerator == 0)
        # A zero denominator is a bad root (failed above); dividing by 1
        # there keeps every divisor nonzero.
        magnitude = gf256._div(numerator, np.where(denominator == 0, 1, denominator))
        # A zero or undefined magnitude at a claimed location fails the row.
        row_ok = np.ones(rows.size, dtype=bool)
        np.logical_and.at(row_ok, ridx, ~bad_root)
        corrected[rows[ridx], jdx] ^= np.where(bad_root, 0, magnitude)

        # Final guarantee: a corrected row must be a codeword.
        recheck = np.flatnonzero(row_ok)
        if recheck.size:
            clean = ~np.any(self.syndromes(corrected[rows[recheck]]) != 0, axis=1)
            row_ok[recheck] &= clean
        # Revert rows that failed any root/verification check.
        failed = np.flatnonzero(~row_ok)
        corrected[rows[failed]] = words[rows[failed]]
        ok[rows[row_ok]] = True
        counts = np.zeros(rows.size, dtype=np.int64)
        np.add.at(counts, ridx, 1)
        n_corrected[rows[row_ok]] = counts[row_ok]
        return RsBatchResult(corrected, ok, n_corrected)


class RsPageDecoder:
    """Maps fixed-size simulator pages onto shortened ``RsCode`` words.

    A page of ``page_bits`` bits packs (big-endian, ``np.packbits``) into
    ``ceil(page_bits / 8)`` symbols, which split into
    ``ceil(symbols / n)`` codewords of near-equal shortened length — the
    layout real controllers use (several ECC chunks per flash page).
    """

    def __init__(self, code: RsCode, page_bits: int):
        if page_bits < 1:
            raise ValueError(f"page_bits must be positive, got {page_bits}")
        self.code = code
        self.page_bits = page_bits
        self.symbols_per_page = -(-page_bits // 8)
        self.codewords_per_page = -(-self.symbols_per_page // code.n)
        base, extra = divmod(self.symbols_per_page, self.codewords_per_page)
        lengths = [base + 1] * extra + [base] * (self.codewords_per_page - extra)
        self.lengths = np.array(lengths, dtype=np.int64)
        if self.lengths.min() <= code.nparity:
            raise ValueError(
                f"page of {self.symbols_per_page} symbols shortens RS(n={code.n}, "
                f"k={code.k}) below its {code.nparity} parity symbols"
            )
        # Flat scatter indices: source symbol s of a page lands at
        # destination[s] in the (codewords_per_page * n) grid, right-aligned
        # per codeword (leading virtual zeros).
        destination = np.zeros(self.symbols_per_page, dtype=np.int64)
        offset = 0
        for c, ln in enumerate(lengths):
            destination[offset : offset + ln] = c * code.n + (code.n - ln) + np.arange(ln)
            offset += ln
        self._destination = destination

    def decode_masks(self, masks: np.ndarray) -> PageMaskDecode:
        """Decode raw bit-error masks, one page per row.

        ``masks`` is ``(pages, page_bits)`` bool/0-1: the XOR of read and
        true data.  By linearity the mask *is* the received word over the
        all-zero codeword, so a correct decode recovers all-zeros and a
        successful decode with surviving nonzero symbols is a
        miscorrection (see module docstring).
        """
        masks = np.atleast_2d(masks)
        if masks.shape[1] != self.page_bits:
            raise ValueError(
                f"expected {self.page_bits} bits per page, got {masks.shape[1]}"
            )
        pages = masks.shape[0]
        symbols = np.packbits(masks.astype(np.uint8, copy=False), axis=1)
        grid = np.zeros((pages, self.codewords_per_page * self.code.n), dtype=np.uint8)
        grid[:, self._destination] = symbols
        words = grid.reshape(pages * self.codewords_per_page, self.code.n)
        lengths = np.tile(self.lengths, pages)
        result = self.code.decode(words, lengths)
        per_page_ok = result.ok.reshape(pages, self.codewords_per_page)
        residual = np.any(result.corrected != 0, axis=1)
        miscorrected_cw = (result.ok & residual).reshape(pages, self.codewords_per_page)
        ok = per_page_ok.all(axis=1)
        miscorrected = ok & miscorrected_cw.any(axis=1)
        bit_errors = np.count_nonzero(masks, axis=1).astype(np.int64)
        symbol_errors = np.count_nonzero(symbols, axis=1).astype(np.int64)
        return PageMaskDecode(ok, miscorrected, bit_errors, symbol_errors, symbols)
