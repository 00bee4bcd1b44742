//! Structured solver for diagonal-plus-rank-one box QPs.
//!
//! The Eq. (8) MPC Hessian is block-diagonal across control blocks
//! (tracking couples channels *within* a block, never across), and each
//! block has the form `c·kkᵀ + diag(d)`: a rank-one coupling through the
//! shared gain vector `k` plus the diagonal progress penalties. A block
//! therefore minimizes
//!
//! ```text
//! ½·Σⱼ dⱼ·yⱼ² + (c/2)·(kᵀy)² + gᵀy     subject to   lo ≤ y ≤ hi
//! ```
//!
//! which is a continuous-quadratic-knapsack-style problem: fix the
//! coupling scalar `u = kᵀy` and the coordinates decouple into closed
//! forms
//!
//! ```text
//! yⱼ(u) = clamp(−(gⱼ + c·u·kⱼ)/dⱼ, loⱼ, hiⱼ)
//! ```
//!
//! Every term `kⱼ·yⱼ(u)` is non-increasing in `u` (the unclamped slope is
//! `−c·kⱼ²/dⱼ ≤ 0` and clamping only flattens it), so
//! `φ(u) = kᵀy(u) − u` is strictly decreasing with `φ' ≤ −1` and has a
//! unique root `u*` inside the bracket `[min kᵀy, max kᵀy]`.
//!
//! φ is piecewise linear: on each piece the coordinates split into a
//! pinned set (at `lo`, at `hi`, or zero-curvature) and a free set, and
//! the piece's root has the closed form
//!
//! ```text
//! u = (Σ_pinned kⱼyⱼ − Σ_free kⱼgⱼ/dⱼ) / (1 + c·Σ_free kⱼ²/dⱼ)
//! ```
//!
//! The solver is an active-set Newton iteration on those pieces. It
//! starts at the piece the caller's warm start `y` lies on (typically the
//! previous control period's solution), and each O(n) evaluation returns
//! the root of the piece it lands on. The sums depend only on membership,
//! so the iteration stops at the exact fixed point `root == u` — at
//! steady state, one evaluation. Bisection on the bracket is the
//! safeguard against pieces whose roots lie elsewhere. A final
//! Sherman–Morrison step on the free set cleans up the rounding left in
//! `y`, so the returned point meets the caller's projected-KKT
//! tolerance. Against the dense FISTA path this replaces O((n·Lc)²)
//! matvecs per iteration with O(n·Lc) total work per control period.
//!
//! [`RankOneDiagQp`] is one block; [`solve_blocks_into`] runs the Lc
//! independent blocks of the MPC problem back to back. Both write into
//! caller-provided slices and allocate nothing.

use crate::linalg::Mat;

/// One diagonal-plus-rank-one box QP block:
/// `minimize ½·Σ dⱼyⱼ² + (c/2)(kᵀy)² + gᵀy` over `lo ≤ y ≤ hi`.
///
/// Requirements (checked by [`Self::validate`] / debug asserts): finite
/// inputs, `c ≥ 0`, `dⱼ ≥ 0` with `dⱼ > 0` wherever the problem must be
/// strictly convex in `yⱼ`, and `lo ≤ hi` elementwise. `dⱼ = 0` is
/// tolerated: the coordinate sits on one of its bounds, except at the
/// coupling value where its coefficient changes sign, where it takes
/// the fraction that makes `kᵀy = u`. That keeps the solver total and
/// exact even for a degenerate `r_scale = 0` penalty.
#[derive(Debug, Clone, Copy)]
pub struct RankOneDiagQp<'a> {
    /// Rank-one coupling weight (`2q·steps` in the MPC assembly).
    pub c: f64,
    /// Shared gain vector `k`.
    pub k: &'a [f64],
    /// Diagonal `d` (strictly convex part).
    pub d: &'a [f64],
    /// Linear term `g`.
    pub g: &'a [f64],
    /// Elementwise lower bounds.
    pub lo: &'a [f64],
    /// Elementwise upper bounds.
    pub hi: &'a [f64],
}

/// Diagnostics from one block solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSolve {
    /// The coupling scalar `u* = kᵀy*` at the solution.
    pub u: f64,
    /// Number of O(n) root-find evaluations performed.
    pub evals: usize,
    /// Projected-KKT residual of the returned point
    /// ([`RankOneDiagQp::kkt_residual`]).
    pub kkt_residual: f64,
    /// Whether the returned point meets the caller's `tol`, i.e.
    /// `kkt_residual <= tol`.
    pub converged: bool,
}

/// Running sums that define one linear piece of φ: `pinned = Σ kⱼyⱼ`
/// over the coordinates held at a bound (or riding one, for `dⱼ = 0`),
/// and `lin = Σ kⱼgⱼ/dⱼ`, `curv = Σ kⱼ²/dⱼ` over the free ones. They
/// depend only on which coordinates are free, never on `u`, so two
/// points on the same piece produce bitwise the same root.
#[derive(Default)]
struct Piece {
    pinned: f64,
    lin: f64,
    curv: f64,
}

impl Piece {
    #[inline]
    fn pin(&mut self, k: f64, y: f64) {
        self.pinned += k * y;
    }

    #[inline]
    fn free(&mut self, k: f64, g: f64, inv_d: f64) {
        self.lin += k * g * inv_d;
        self.curv += k * k * inv_d;
    }

    /// Root of the piece: `kᵀy(u) = u` with the membership held fixed.
    fn root(&self, c: f64) -> f64 {
        (self.pinned - self.lin) / (1.0 + c * self.curv)
    }
}

impl<'a> RankOneDiagQp<'a> {
    /// Panic on shape or domain errors; call once per assembly, not per
    /// evaluation.
    pub fn validate(&self) {
        let n = self.k.len();
        assert!(n > 0, "empty block");
        assert!(
            self.d.len() == n && self.g.len() == n && self.lo.len() == n && self.hi.len() == n,
            "block shape mismatch"
        );
        assert!(self.c >= 0.0 && self.c.is_finite(), "c must be ≥ 0");
        assert!(
            self.d.iter().all(|&d| d >= 0.0 && d.is_finite()),
            "diagonal must be ≥ 0"
        );
        assert!(
            self.lo.iter().zip(self.hi).all(|(l, u)| l <= u),
            "lower bound exceeds upper bound"
        );
    }

    /// Evaluate the closed-form minimizer `y(u)` at a fixed coupling
    /// scalar, overwriting `y` with it, and return the root of the piece
    /// of φ that `u` lies on. Since φ falls with slope at least 1 on
    /// every piece, `root > u` exactly when `φ(u) > 0`.
    fn eval(&self, u: f64, y: &mut [f64]) -> f64 {
        let mut piece = Piece::default();
        for (j, out) in y.iter_mut().enumerate() {
            let (k, g, d) = (self.k[j], self.g[j], self.d[j]);
            let s = g + self.c * u * k;
            *out = if d > 0.0 {
                let inv_d = 1.0 / d;
                let raw = -s * inv_d;
                if raw <= self.lo[j] {
                    piece.pin(k, self.lo[j]);
                    self.lo[j]
                } else if raw >= self.hi[j] {
                    piece.pin(k, self.hi[j]);
                    self.hi[j]
                } else {
                    piece.free(k, g, inv_d);
                    raw
                }
            } else {
                let yj = self.bang_bang(j, s);
                piece.pin(k, yj);
                yj
            };
        }
        piece.root(self.c)
    }

    /// Root of the piece a warm start `y` lies on: coordinates at or
    /// beyond a bound count as pinned there, zero-curvature ones as
    /// pinned where they are, and the rest as free. `None` when `y`
    /// holds a NaN (the cold-start marker).
    fn warm_root(&self, y: &[f64]) -> Option<f64> {
        let mut piece = Piece::default();
        for (j, &yj) in y.iter().enumerate() {
            let k = self.k[j];
            if yj.is_nan() {
                return None;
            } else if yj <= self.lo[j] {
                piece.pin(k, self.lo[j]);
            } else if yj >= self.hi[j] {
                piece.pin(k, self.hi[j]);
            } else if self.d[j] > 0.0 {
                piece.free(k, self.g[j], 1.0 / self.d[j]);
            } else {
                piece.pin(k, yj);
            }
        }
        Some(piece.root(self.c))
    }

    /// A zero-curvature coordinate (`dⱼ = 0`) at coefficient
    /// `s = gⱼ + c·u·kⱼ`: it rides its cheaper bound.
    fn bang_bang(&self, j: usize, s: f64) -> f64 {
        if s > 0.0 {
            self.lo[j]
        } else if s < 0.0 {
            self.hi[j]
        } else {
            0.0_f64.clamp(self.lo[j], self.hi[j])
        }
    }

    /// Resolve a φ jump inside a bracket `[a, b]` (`φ(a) ≥ 0 ≥ φ(b)`)
    /// that has collapsed to machine precision. Zero-curvature
    /// coordinates that flip bounds inside it are free at the optimum
    /// (their gradient vanishes at the jump), so they all take one common
    /// fraction θ between their values at `a` and at `b`, chosen so that
    /// `kᵀy = u` — the structured analogue of the market's fractional
    /// marginal bidder. Writes the point into `y` and returns `u`, or
    /// returns `None` and leaves `y` alone when no coordinate flips.
    fn split_jump(&self, a: f64, b: f64, y: &mut [f64]) -> Option<f64> {
        let side = |j: usize, u: f64| self.bang_bang(j, self.g[j] + self.c * u * self.k[j]);
        let flips = |j: usize| self.d[j] == 0.0 && side(j, a) != side(j, b);
        if !(0..y.len()).any(&flips) {
            return None;
        }
        let u = 0.5 * (a + b);
        self.eval(u, y);
        let (mut fixed, mut ka, mut kb) = (0.0, 0.0, 0.0);
        for (j, &yj) in y.iter().enumerate() {
            if flips(j) {
                ka += self.k[j] * side(j, a);
                kb += self.k[j] * side(j, b);
            } else {
                fixed += self.k[j] * yj;
            }
        }
        // Each flip lowers kⱼyⱼ (it is non-increasing in u), so kb < ka.
        let theta = ((u - fixed - ka) / (kb - ka)).clamp(0.0, 1.0);
        for (j, out) in y.iter_mut().enumerate() {
            if flips(j) {
                let (ya, yb) = (side(j, a), side(j, b));
                *out = ya + theta * (yb - ya);
            }
        }
        Some(u)
    }

    /// One Newton step on the free coordinates (`dⱼ > 0`, strictly inside
    /// the box) with every other coordinate held: the reduced Hessian is
    /// `diag(d) + c·kkᵀ` on the free set, inverted by Sherman–Morrison.
    /// At the root of the right piece the step is rounding-sized; it
    /// zeroes the free gradient to working precision.
    fn refine(&self, y: &mut [f64]) {
        let free = |j: usize, yj: f64| self.d[j] > 0.0 && yj > self.lo[j] && yj < self.hi[j];
        let ky = crate::linalg::dot(self.k, y);
        let grad = |j: usize, yj: f64| self.d[j] * yj + self.c * ky * self.k[j] + self.g[j];
        let (mut num, mut curv) = (0.0, 0.0);
        for (j, &yj) in y.iter().enumerate() {
            if free(j, yj) {
                let inv_d = 1.0 / self.d[j];
                num += self.k[j] * grad(j, yj) * inv_d;
                curv += self.k[j] * self.k[j] * inv_d;
            }
        }
        let t = self.c * num / (1.0 + self.c * curv);
        for (j, out) in y.iter_mut().enumerate() {
            let yj = *out;
            if free(j, yj) {
                let step = (grad(j, yj) - t * self.k[j]) / self.d[j];
                *out = (yj - step).clamp(self.lo[j], self.hi[j]);
            }
        }
    }

    /// Solve the block into `y` (length `n`), warm-started from what `y`
    /// holds on entry: any point (coordinates at or beyond a bound count
    /// as active there), typically the previous control period's
    /// solution, or NaN for a cold start at the bracket midpoint. A stale
    /// or arbitrary warm start only costs evaluations, never accuracy.
    /// `tol` is the projected-KKT tolerance the result is certified
    /// against; `max_evals` bounds the root-find evaluations (each O(n)).
    /// No allocation.
    pub fn solve_into(&self, y: &mut [f64], tol: f64, max_evals: usize) -> BlockSolve {
        debug_assert_eq!(y.len(), self.k.len());
        assert!(tol > 0.0 && max_evals > 0);

        // Decoupled fast path: with no rank-one term the closed forms are
        // exact at any u; one evaluation finishes the block.
        let coupled = self.c > 0.0 && self.k.iter().any(|&k| k != 0.0);
        if !coupled {
            self.eval(0.0, y);
            return self.finish(y, crate::linalg::dot(self.k, y), 1, tol);
        }

        // Bracket u* by the range of kᵀy over the box: φ(a) ≥ 0, φ(b) ≤ 0.
        let mut a = 0.0;
        let mut b = 0.0;
        for ((&k, &l), &h) in self.k.iter().zip(self.lo).zip(self.hi) {
            a += (k * l).min(k * h);
            b += (k * l).max(k * h);
        }
        // A bracket end is a legitimate iterate until it has been
        // evaluated: with every coordinate pinned at one bound the root
        // *is* that end.
        let (mut a_seen, mut b_seen) = (false, false);
        let mut u = match self.warm_root(y) {
            Some(w) if w.is_finite() => w.clamp(a, b),
            _ => 0.5 * (a + b),
        };
        let mut evals = 0;
        while evals < max_evals {
            let root = self.eval(u, y);
            evals += 1;
            // Fixed point: u is the root of its own piece.
            if root == u {
                break;
            }
            if root > u {
                a = u;
                a_seen = true;
            } else {
                b = u;
                b_seen = true;
            }
            // Machine-precision bracket: u is resolved to one ulp. If
            // zero-diagonal coordinates flip inside it, φ jumps over its
            // root there and they must share the difference.
            if b - a <= f64::EPSILON * (a.abs().max(b.abs()).max(1.0)) {
                if let Some(jump) = self.split_jump(a, b, y) {
                    u = jump;
                }
                break;
            }
            // Newton onto the piece root if it stays in the bracket;
            // bisection otherwise.
            let above_a = root > a || (root == a && !a_seen);
            let below_b = root < b || (root == b && !b_seen);
            u = if above_a && below_b {
                root
            } else {
                0.5 * (a + b)
            };
        }
        self.refine(y);
        self.finish(y, u, evals, tol)
    }

    /// Certify the point in `y` against `tol`.
    fn finish(&self, y: &[f64], u: f64, evals: usize, tol: f64) -> BlockSolve {
        let kkt_residual = self.kkt_residual(y);
        BlockSolve {
            u,
            evals,
            kkt_residual,
            converged: kkt_residual <= tol,
        }
    }

    /// Objective value `½·Σ dⱼyⱼ² + (c/2)(kᵀy)² + gᵀy`.
    pub fn objective(&self, y: &[f64]) -> f64 {
        let ky = crate::linalg::dot(self.k, y);
        let mut v = 0.5 * self.c * ky * ky;
        for (j, &yj) in y.iter().enumerate() {
            v += 0.5 * self.d[j] * yj * yj + self.g[j] * yj;
        }
        v
    }

    /// Projected-KKT residual `‖y − Π(y − ∇)‖∞` with
    /// `∇ⱼ = dⱼyⱼ + c·(kᵀy)·kⱼ + gⱼ` — the same certificate
    /// [`crate::qp::QpProblem::kkt_residual`] uses, computed in O(n).
    pub fn kkt_residual(&self, y: &[f64]) -> f64 {
        let ky = crate::linalg::dot(self.k, y);
        let mut res = 0.0_f64;
        for (j, &yj) in y.iter().enumerate() {
            let grad = self.d[j] * yj + self.c * ky * self.k[j] + self.g[j];
            let moved = (yj - grad).clamp(self.lo[j], self.hi[j]);
            res = res.max((yj - moved).abs());
        }
        res
    }

    /// Materialize the dense Hessian `c·kkᵀ + diag(d)` — for
    /// cross-validation against the dense solvers only; the hot path
    /// never builds it.
    pub fn dense_hessian(&self) -> Mat {
        let n = self.k.len();
        let mut h = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                h[(j, i)] = self.c * self.k[j] * self.k[i];
            }
            h[(j, j)] += self.d[j];
        }
        h
    }
}

/// Solve `blocks` independent [`RankOneDiagQp`] blocks laid out
/// contiguously in `d`/`g`/`lo`/`hi`/`x` (block `b` owns
/// `[b·n, (b+1)·n)`), all sharing the gain vector `k`. `x` holds the warm
/// start on entry (see [`RankOneDiagQp::solve_into`]: a caller that keeps
/// it alive across control periods warm-starts every block from its
/// previous solution; NaN = cold) and the solution on exit. Returns the
/// summed evaluation count, whether every block met `tol`, and the
/// overall projected-KKT residual of `x`. This is the MPC hot path:
/// O(n·blocks) total, zero allocation.
#[allow(clippy::too_many_arguments)] // the six problem slices mirror the MPC assembly layout
pub fn solve_blocks_into(
    c: &[f64],
    k: &[f64],
    d: &[f64],
    g: &[f64],
    lo: &[f64],
    hi: &[f64],
    x: &mut [f64],
    tol: f64,
    max_evals: usize,
) -> (usize, bool, f64) {
    let n = k.len();
    let blocks = c.len();
    assert!(n > 0 && blocks > 0, "empty structured problem");
    let dim = n * blocks;
    assert!(
        d.len() == dim && g.len() == dim && lo.len() == dim && hi.len() == dim && x.len() == dim,
        "structured problem shape mismatch"
    );
    let mut evals = 0;
    let mut converged = true;
    let mut res = 0.0_f64;
    for (b, &cb) in c.iter().enumerate() {
        let r = b * n..(b + 1) * n;
        let block = RankOneDiagQp {
            c: cb,
            k,
            d: &d[r.clone()],
            g: &g[r.clone()],
            lo: &lo[r.clone()],
            hi: &hi[r.clone()],
        };
        block.validate();
        let s = block.solve_into(&mut x[r], tol, max_evals);
        evals += s.evals;
        converged &= s.converged;
        res = res.max(s.kkt_residual);
    }
    (evals, converged, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpProblem;

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    /// Random block with crossed activity at the solution: gains of both
    /// signs, uneven weights, bounds tight enough that some coordinates
    /// pin and some stay free.
    #[allow(clippy::type_complexity)]
    fn random_block(
        seed: u64,
        n: usize,
    ) -> (f64, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut r = xorshift(seed);
        let c = 0.1 + 3.0 * (r().abs());
        let k: Vec<f64> = (0..n).map(|_| 5.0 * r()).collect();
        let d: Vec<f64> = (0..n).map(|_| 0.05 + 4.0 * r().abs()).collect();
        let g: Vec<f64> = (0..n).map(|_| 6.0 * r()).collect();
        let lo: Vec<f64> = (0..n).map(|_| -1.0 + 0.5 * r()).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + 0.2 + r().abs()).collect();
        (c, k, d, g, lo, hi)
    }

    #[test]
    fn agrees_with_dense_fista_on_random_blocks() {
        for seed in 0..30 {
            let n = 2 + (seed as usize % 7);
            let (c, k, d, g, lo, hi) = random_block(seed, n);
            let block = RankOneDiagQp {
                c,
                k: &k,
                d: &d,
                g: &g,
                lo: &lo,
                hi: &hi,
            };
            let mut y = vec![0.0; n];
            let s = block.solve_into(&mut y, 1e-9, 200);
            assert!(s.converged, "seed={seed}");
            assert!(block.kkt_residual(&y) < 1e-8, "seed={seed}");
            let p = QpProblem::new(block.dense_hessian(), g.clone(), lo.clone(), hi.clone());
            let dense = p.solve(1e-10, 100_000);
            assert!(dense.converged, "seed={seed}");
            for (a, b) in y.iter().zip(&dense.x) {
                assert!((a - b).abs() < 1e-6, "seed={seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn unconstrained_matches_sherman_morrison() {
        // Wide-open box: the optimum solves (c·kkᵀ + D)y = −g, which
        // Sherman–Morrison gives in closed form.
        let k = vec![2.0, -1.0, 0.5, 3.0];
        let d = vec![1.0, 2.0, 0.5, 4.0];
        let g = vec![1.0, -2.0, 0.3, -1.5];
        let c = 0.7;
        let lo = vec![-1e9; 4];
        let hi = vec![1e9; 4];
        let block = RankOneDiagQp {
            c,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 4];
        let s = block.solve_into(&mut y, 1e-12, 500);
        assert!(s.converged);
        // y = −D⁻¹g + (c·kᵀD⁻¹g / (1 + c·kᵀD⁻¹k))·D⁻¹k
        let ktdg: f64 = (0..4).map(|j| k[j] * g[j] / d[j]).sum();
        let ktdk: f64 = (0..4).map(|j| k[j] * k[j] / d[j]).sum();
        let alpha = c * ktdg / (1.0 + c * ktdk);
        for j in 0..4 {
            let exact = -g[j] / d[j] + alpha * k[j] / d[j];
            assert!((y[j] - exact).abs() < 1e-9, "j={j}: {} vs {exact}", y[j]);
        }
        assert!((s.u - crate::linalg::dot(&k, &y)).abs() < 1e-9);
    }

    #[test]
    fn all_pinned_box_returns_the_corner() {
        // Equal bounds pin every coordinate regardless of the objective.
        let k = vec![1.0, 2.0];
        let d = vec![1.0, 1.0];
        let g = vec![100.0, -100.0];
        let lo = vec![0.3, -0.4];
        let hi = lo.clone();
        let block = RankOneDiagQp {
            c: 5.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 2];
        let s = block.solve_into(&mut y, 1e-10, 100);
        assert!(s.converged);
        assert_eq!(y, lo);
        assert!(block.kkt_residual(&y) < 1e-12);
    }

    #[test]
    fn zero_coupling_is_the_diagonal_closed_form() {
        let k = vec![3.0, 3.0, 3.0];
        let d = vec![2.0, 4.0, 8.0];
        let g = vec![-2.0, -2.0, -2.0];
        let lo = vec![0.0; 3];
        let hi = vec![10.0; 3];
        let block = RankOneDiagQp {
            c: 0.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 3];
        let s = block.solve_into(&mut y, 1e-10, 100);
        assert_eq!(s.evals, 1);
        for (j, &yj) in y.iter().enumerate() {
            assert!((yj - 2.0 / d[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_diagonal_coordinate_goes_bang_bang() {
        // d₀ = 0: the coordinate has no curvature of its own and must
        // land on a bound (whichever the coupled gradient favors).
        let k = vec![1.0, 1.0];
        let d = vec![0.0, 1.0];
        let g = vec![0.5, -1.0];
        let lo = vec![-1.0, -1.0];
        let hi = vec![1.0, 1.0];
        let block = RankOneDiagQp {
            c: 0.25,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![0.0; 2];
        block.solve_into(&mut y, 1e-9, 200);
        assert!(y[0] == -1.0 || y[0] == 1.0, "y0={}", y[0]);
        // The dense reference agrees on the objective value.
        let p = QpProblem::new(block.dense_hessian(), g.clone(), lo.clone(), hi.clone());
        let dense = p.solve(1e-10, 50_000);
        assert!((block.objective(&y) - block.objective(&dense.x)).abs() < 1e-7);
    }

    #[test]
    fn multi_block_layout_solves_blocks_independently() {
        let n = 3;
        let k = vec![2.0, 1.0, 4.0];
        let c = [1.0, 0.5];
        let d = vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5];
        let g = vec![-1.0, 0.0, 2.0, 1.0, -2.0, 0.3];
        let lo = vec![-1.0; 6];
        let hi = vec![1.0; 6];
        let mut x = vec![0.0; 6];
        let (evals, converged, res) =
            solve_blocks_into(&c, &k, &d, &g, &lo, &hi, &mut x, 1e-9, 200);
        assert!(converged && evals >= 2);
        assert!(res < 1e-8);
        // Each block matches its standalone solve.
        for (b, &cb) in c.iter().enumerate() {
            let r = b * n..(b + 1) * n;
            let block = RankOneDiagQp {
                c: cb,
                k: &k,
                d: &d[r.clone()],
                g: &g[r.clone()],
                lo: &lo[r.clone()],
                hi: &hi[r.clone()],
            };
            let mut y = vec![0.0; n];
            block.solve_into(&mut y, 1e-9, 200);
            for (a, bb) in x[r].iter().zip(&y) {
                assert!((a - bb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn newton_polish_converges_in_few_evals() {
        // MPC-shaped block (uniform positive gains, healthy diagonal),
        // solved cold: one bisection midpoint lands on a piece whose root
        // is the optimum, and the next evaluation confirms it.
        let n = 64;
        let k = vec![15.0; n];
        let d = vec![2.0; n];
        let g: Vec<f64> = (0..n).map(|j| -30.0 - (j as f64 % 7.0)).collect();
        let lo = vec![0.2; n];
        let hi = vec![1.0; n];
        let block = RankOneDiagQp {
            c: 14.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![f64::NAN; n];
        let s = block.solve_into(&mut y, 1e-9, 200);
        assert!(s.converged);
        assert!(s.evals <= 3, "evals={}", s.evals);
        assert!(block.kkt_residual(&y) <= 1e-9);
    }

    /// The paper rack's MPC block shape (uniform `k = 19.6`, `c = 2`,
    /// `d = 1.8`): φ's free window is a few hundredths wide in `u`
    /// against a bracket ~1000 wide, and the linear term is spread so
    /// that channels pin at each bound while the middle ones stay free.
    /// `shift` moves every channel's tracking term alike, as a period's
    /// new reference does.
    fn plateau_block_g(n: usize, shift: f64) -> Vec<f64> {
        (0..n)
            .map(|j| -29_503.0 + 3.0 * (j as f64 / n as f64 - 0.5) + shift)
            .collect()
    }

    #[test]
    fn warm_start_on_a_plateau_finishes_in_two_evals() {
        let n = 64;
        let k = vec![19.6; n];
        let d = vec![1.8; n];
        let lo = vec![0.2; n];
        let hi = vec![1.0; n];
        let solve = |g: &[f64], y: &mut [f64]| {
            RankOneDiagQp {
                c: 2.0,
                k: &k,
                d: &d,
                g,
                lo: &lo,
                hi: &hi,
            }
            .solve_into(y, 1e-9, 200)
        };
        let mut y = vec![f64::NAN; n];
        let cold = solve(&plateau_block_g(n, 0.0), &mut y);
        assert!(cold.converged);
        let free = y.iter().filter(|&&v| v > 0.2 && v < 1.0).count();
        let pinned = y.iter().filter(|&&v| v == 0.2 || v == 1.0).count();
        assert!(free > 0 && pinned > 0, "free={free} pinned={pinned}");
        // The next period: the reference moves, g shifts a little, and the
        // previous solution's active set lands on the new piece at once.
        let g1 = plateau_block_g(n, 0.05);
        let warm = solve(&g1, &mut y);
        assert!(warm.converged);
        assert!(warm.evals <= 2, "evals={}", warm.evals);
        assert!(warm.kkt_residual <= 1e-9, "kkt={}", warm.kkt_residual);
        let mut y_cold = vec![f64::NAN; n];
        solve(&g1, &mut y_cold);
        for (a, b) in y.iter().zip(&y_cold) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn all_at_lower_bound_root_is_the_bracket_end() {
        // Every channel wants to sit below its floor: the root is the
        // bracket end a = Σ kⱼ·loⱼ, which the solve must take as an
        // iterate instead of bisecting toward it.
        let n = 64;
        let k = vec![19.6; n];
        let d = vec![1.8; n];
        let g = vec![50.0; n];
        let lo = vec![0.2; n];
        let hi = vec![1.0; n];
        let block = RankOneDiagQp {
            c: 2.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y = vec![f64::NAN; n];
        let cold = block.solve_into(&mut y, 1e-9, 200);
        assert!(cold.converged);
        assert!(cold.evals <= 2, "cold evals={}", cold.evals);
        assert_eq!(y, lo);
        let warm = block.solve_into(&mut y, 1e-9, 200);
        assert!(warm.converged && warm.kkt_residual == 0.0);
        assert_eq!(warm.evals, 1);
        assert_eq!(y, lo);
    }

    #[test]
    fn warm_start_reuses_previous_solution_and_keeps_the_certificate() {
        for seed in 0..20 {
            let n = 3 + (seed as usize % 5);
            let (c, k, d, g, lo, hi) = random_block(seed + 100, n);
            let block = RankOneDiagQp {
                c,
                k: &k,
                d: &d,
                g: &g,
                lo: &lo,
                hi: &hi,
            };
            let mut y_cold = vec![f64::NAN; n];
            let cold = block.solve_into(&mut y_cold, 1e-9, 200);
            assert!(cold.converged);
            // Re-solving the same block from its own solution must
            // converge at least as fast and land on the same point.
            let mut y_warm = y_cold.clone();
            let warm = block.solve_into(&mut y_warm, 1e-9, 200);
            assert!(warm.converged, "seed={seed}");
            assert!(warm.evals <= cold.evals, "seed={seed}");
            assert!(block.kkt_residual(&y_warm) < 1e-8, "seed={seed}");
            for (a, b) in y_cold.iter().zip(&y_warm) {
                assert!((a - b).abs() < 1e-7, "seed={seed}");
            }
        }
    }

    #[test]
    fn stale_warm_start_keeps_the_cold_answer() {
        // Warm starts far outside the box, infinite, or on the wrong
        // active set cost evaluations but never accuracy; NaN anywhere
        // is the cold start, bit for bit.
        let (c, k, d, g, lo, hi) = random_block(7, 5);
        let block = RankOneDiagQp {
            c,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        };
        let mut y_cold = vec![f64::NAN; 5];
        let cold = block.solve_into(&mut y_cold, 1e-9, 200);
        assert!(cold.converged);
        let mut y = vec![0.5, f64::NAN, -0.5, 0.0, 1.0];
        let s = block.solve_into(&mut y, 1e-9, 200);
        assert_eq!((s.evals, &y), (cold.evals, &y_cold));
        for bad in [1e12, -1e12, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = vec![bad; 5];
            let s = block.solve_into(&mut y, 1e-9, 200);
            assert!(s.converged && s.kkt_residual <= 1e-9, "start={bad}");
            for (a, b) in y.iter().zip(&y_cold) {
                assert!((a - b).abs() < 1e-7, "start={bad}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn blocks_warm_state_round_trips_across_solves() {
        let n = 3;
        let k = vec![2.0, 1.0, 4.0];
        let c = [1.0, 0.5];
        let d = vec![1.0, 2.0, 3.0, 0.5, 0.5, 0.5];
        let g = vec![-1.0, 0.0, 2.0, 1.0, -2.0, 0.3];
        let lo = vec![-1.0; 6];
        let hi = vec![1.0; 6];
        let mut x = vec![f64::NAN; 6];
        let (cold_evals, conv, res) =
            solve_blocks_into(&c, &k, &d, &g, &lo, &hi, &mut x, 1e-9, 200);
        assert!(conv && res < 1e-8);
        assert!(x.iter().all(|v| v.is_finite()), "solution recorded");
        let x_cold = x.clone();
        // Second solve of the identical problem starts at the solution.
        let (warm_evals, conv2, res2) =
            solve_blocks_into(&c, &k, &d, &g, &lo, &hi, &mut x, 1e-9, 200);
        assert!(conv2 && res2 < 1e-8);
        assert!(warm_evals <= cold_evals);
        assert_eq!(warm_evals, c.len(), "one evaluation per block");
        for (a, b) in x_cold.iter().zip(&x) {
            assert!((a - b).abs() < 1e-7);
        }
        assert_eq!(x_cold.len(), n * c.len());
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn validate_rejects_crossed_bounds() {
        let k = [1.0];
        let d = [1.0];
        let g = [0.0];
        let lo = [1.0];
        let hi = [0.0];
        RankOneDiagQp {
            c: 1.0,
            k: &k,
            d: &d,
            g: &g,
            lo: &lo,
            hi: &hi,
        }
        .validate();
    }
}
