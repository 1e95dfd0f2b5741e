//! Image filters: box and Gaussian blur; Laplacian pyramid blending.
//!
//! §III lists alpha blending, Gaussian blending and Laplacian-pyramid blending
//! as the state-of-the-art techniques a video-call application may use to
//! smooth the seam between the detected foreground and the virtual background.
//! `bb-callsim` composes the blend stage out of the primitives here. Motion
//! blur models the §VIII-C observation that fast arm motion smears the
//! foreground into the background and changes leakage behaviour.

use crate::error::ImagingError;
use crate::frame::Frame;
use crate::mask::Mask;
use crate::pixel::Rgb;

/// The largest radius the box kernels ([`box_blur`], [`deblur_box`])
/// accept. They hold `(2·radius+1)`-tap window sums of bytes in `u16`
/// lanes, and a vertical slide adds the entering row before it drops the
/// leaving one, so a lane peaks at `255·(2·radius+2)` — at most `65_535`
/// exactly when `radius ≤ 127`. Every entry point that takes a blur radius
/// from outside (VB specs, the CLI, reconstructor configs, checkpoints)
/// rejects larger radii with its typed error.
pub const MAX_BLUR_RADIUS: usize = 127;

/// Separable box blur with a `(2·radius+1)`-wide kernel, edge-clamped. Each
/// pass rounds its channel means to nearest ([`round_div`]).
///
/// `radius = 0` returns a copy.
///
/// # Panics
///
/// If `radius` exceeds [`MAX_BLUR_RADIUS`].
pub fn box_blur(frame: &Frame, radius: usize) -> Frame {
    if radius == 0 {
        return frame.clone();
    }
    let (w, h) = frame.dims();
    let src = frame.as_rgb24();
    let mut out = Frame::new(w, h);
    let mut rows = BoxRows::new(w, h, radius);
    rows.start(src);
    for (y, row) in out.as_rgb24_mut().chunks_exact_mut(rows.stride).enumerate() {
        let recip = rows.recip;
        for (d, &s) in row.iter_mut().zip(&rows.vsum) {
            *d = recip.round_div(s);
        }
        if y + 1 < h {
            rows.slide(y, src);
        }
    }
    out
}

/// Van Cittert deconvolution against [`box_blur`]: starting from the blurred
/// observation `y`, iterate `x ← clamp(x + y − blur(x))`. Each step adds back
/// the residual the current estimate fails to explain, sharpening edges that
/// a `(2·radius+1)`-box kernel smeared. All arithmetic is integer (channel
/// math clamped to `0..=255`), so the result is bit-deterministic — the
/// blur-residue reconstruction mode accumulates these frames as evidence.
///
/// One fused pass per iteration: the vertical window slides down the
/// estimate and each row is updated in place as soon as its reblurred value
/// is known. The update never feeds back into the current iteration: every
/// row the window still needs is already horizontally blurred in
/// `BoxRows`' ring, and rows below the window are read before they are
/// updated — the output is exactly that of reblurring whole frames.
///
/// `radius = 0` or `iterations = 0` returns a copy (nothing to invert).
///
/// # Panics
///
/// If `radius` exceeds [`MAX_BLUR_RADIUS`].
pub fn deblur_box(frame: &Frame, radius: usize, iterations: usize) -> Frame {
    let mut out = Frame::new(frame.width(), frame.height());
    deblur_box_into(frame, radius, iterations, &mut out);
    out
}

/// [`deblur_box`] into a caller-owned frame of the same size, so a caller
/// that deblurs many frames can reuse its output buffers.
///
/// # Panics
///
/// If `radius` exceeds [`MAX_BLUR_RADIUS`], or `out` differs from `frame`
/// in size.
pub fn deblur_box_into(frame: &Frame, radius: usize, iterations: usize, out: &mut Frame) {
    assert_eq!(out.dims(), frame.dims(), "deblur_box_into: size mismatch");
    // The estimate starts as the observation and is updated in place in
    // `out`'s byte view; the observation's rows are read straight from
    // `frame`'s.
    out.pixels_mut().copy_from_slice(frame.pixels());
    if radius == 0 || iterations == 0 {
        return;
    }
    let (w, h) = frame.dims();
    let mut rows = BoxRows::new(w, h, radius);
    let stride = rows.stride;
    let observed = frame.as_rgb24();
    let estimate = out.as_rgb24_mut();
    for _ in 0..iterations {
        rows.start(estimate);
        for y in 0..h {
            let recip = rows.recip;
            let span = y * stride..(y + 1) * stride;
            for ((e, &o), &s) in estimate[span.clone()]
                .iter_mut()
                .zip(&observed[span])
                .zip(&rows.vsum)
            {
                let step = i16::from(*e) + i16::from(o) - i16::from(recip.round_div(s));
                *e = step.clamp(0, 255) as u8;
            }
            if y + 1 < h {
                rows.slide(y, estimate);
            }
        }
    }
}

/// Round-to-nearest division by a fixed window size `n` without a division:
/// [`Reciprocal::round_div`] equals [`round_div`]`(sum, n)` for every
/// `sum ∈ 0..=255·n` — the range of an `n`-tap window sum of bytes.
///
/// This is Granlund and Montgomery's round-up reciprocal for 16-bit
/// dividends ("Division by Invariant Integers using Multiplication", PLDI
/// 1994, Fig. 4.1): with `l = ⌈log2 n⌉` and the 17-bit multiplier
/// `2^16 + mul = ⌊2^(16+l) / n⌋ + 1`, the quotient `⌊x / n⌋` of any `x < 2^16`
/// is `(t + ((x − t) >> 1)) >> (l − 1)` where `t = (x · mul) >> 16`. Every
/// step stays in `u16` lanes, so the kernel loops vectorise to 16-bit
/// multiply-high instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reciprocal {
    half: u16,
    mul: u16,
    pre: u16,
    post: u16,
}

impl Reciprocal {
    /// The reciprocal of `n`.
    ///
    /// # Panics
    ///
    /// If `n` is not in `1..=255` (`2·MAX_BLUR_RADIUS + 1`).
    pub fn new(n: u16) -> Self {
        assert!(
            (1..=2 * MAX_BLUR_RADIUS as u16 + 1).contains(&n),
            "reciprocal window {n} outside 1..=255"
        );
        let l = u32::from(n).next_power_of_two().trailing_zeros();
        let mul = ((1u32 << 16) * ((1 << l) - u32::from(n))) / u32::from(n) + 1;
        Reciprocal {
            half: n / 2,
            mul: mul as u16,
            pre: l.min(1) as u16,
            post: l.saturating_sub(1) as u16,
        }
    }

    /// `round_div(sum, n)` for a window sum `sum ≤ 255·n`.
    #[inline]
    pub fn round_div(self, sum: u16) -> u8 {
        let x = sum + self.half;
        let t = ((u32::from(x) * u32::from(self.mul)) >> 16) as u16;
        ((t + ((x - t) >> self.pre)) >> self.post) as u8
    }
}

/// The separable `(2·radius+1)`-box over an interleaved RGB byte image, one
/// output row at a time, with all scratch allocated once.
///
/// Both passes are straight tap sums over byte lanes in `u16` accumulators,
/// loops the compiler vectorises. The horizontal pass reads a copy of the
/// row padded with `radius` replicated edge pixels on each side, so every
/// lane — edge ones included — sums the same `2·radius+1` taps, and rounds
/// through the [`Reciprocal`]. Its rows go to a ring of `2·radius+2` slots
/// (row `y` in slot `y mod slots`), computed only when the vertical window
/// first reaches them; `vsum` holds the vertical window sums of the current
/// output row, slid down one row at a time.
struct BoxRows {
    radius: usize,
    recip: Reciprocal,
    /// Bytes per row (`3·width`).
    stride: usize,
    last: usize,
    /// The row being horizontally blurred, edge-padded.
    padded: Vec<u8>,
    hsum: Vec<u16>,
    ring: RowRing,
    vsum: Vec<u16>,
    /// The next row whose horizontal pass has not run yet.
    next: usize,
}

impl BoxRows {
    fn new(width: usize, height: usize, radius: usize) -> Self {
        assert!(
            radius <= MAX_BLUR_RADIUS,
            "box radius {radius} exceeds MAX_BLUR_RADIUS ({MAX_BLUR_RADIUS})"
        );
        let stride = 3 * width;
        let slots = (2 * radius + 2).min(height);
        BoxRows {
            radius,
            recip: Reciprocal::new(2 * radius as u16 + 1),
            stride,
            last: height - 1,
            padded: vec![0; stride + 6 * radius],
            hsum: vec![0; stride],
            ring: RowRing {
                rows: vec![0; slots * stride],
                stride,
                slots,
            },
            vsum: vec![0; stride],
            next: 0,
        }
    }

    /// Horizontally blurs row `self.next` of `img` into its ring slot.
    fn push_row(&mut self, img: &[u8]) {
        let (stride, edge) = (self.stride, 3 * self.radius);
        let src = &img[self.next * stride..(self.next + 1) * stride];
        let (left, rest) = self.padded.split_at_mut(edge);
        let (body, right) = rest.split_at_mut(stride);
        body.copy_from_slice(src);
        for px in left.chunks_exact_mut(3) {
            px.copy_from_slice(&src[..3]);
        }
        for px in right.chunks_exact_mut(3) {
            px.copy_from_slice(&src[stride - 3..]);
        }
        for (s, &b) in self.hsum.iter_mut().zip(&self.padded) {
            *s = u16::from(b);
        }
        for tap in 1..=2 * self.radius {
            for (s, &b) in self.hsum.iter_mut().zip(&self.padded[3 * tap..]) {
                *s += u16::from(b);
            }
        }
        let recip = self.recip;
        for (d, &s) in self.ring.row_mut(self.next).iter_mut().zip(&self.hsum) {
            *d = recip.round_div(s);
        }
        self.next += 1;
    }

    /// Positions the window on output row 0 of `img`.
    fn start(&mut self, img: &[u8]) {
        self.next = 0;
        while self.next <= self.radius.min(self.last) {
            self.push_row(img);
        }
        for (v, &b) in self.vsum.iter_mut().zip(self.ring.row(0)) {
            *v = u16::from(b);
        }
        for d in 1..=2 * self.radius {
            let row = self.ring.row(d.saturating_sub(self.radius).min(self.last));
            for (v, &b) in self.vsum.iter_mut().zip(row) {
                *v += u16::from(b);
            }
        }
    }

    /// Slides the window from output row `y` to `y + 1` (`y < last`). Row
    /// `y + 1 + radius` of `img` is read for the first time here, so rows
    /// above it may already have been overwritten.
    fn slide(&mut self, y: usize, img: &[u8]) {
        let add = (y + 1 + self.radius).min(self.last);
        if add == self.next {
            self.push_row(img);
        }
        let sub = y.saturating_sub(self.radius);
        for ((v, &a), &s) in self
            .vsum
            .iter_mut()
            .zip(self.ring.row(add))
            .zip(self.ring.row(sub))
        {
            *v = *v + u16::from(a) - u16::from(s);
        }
    }
}

/// Horizontally blurred rows, row `y` in slot `y mod slots`.
struct RowRing {
    rows: Vec<u8>,
    stride: usize,
    slots: usize,
}

impl RowRing {
    fn row(&self, y: usize) -> &[u8] {
        let slot = y % self.slots;
        &self.rows[slot * self.stride..(slot + 1) * self.stride]
    }

    fn row_mut(&mut self, y: usize) -> &mut [u8] {
        let slot = y % self.slots;
        &mut self.rows[slot * self.stride..(slot + 1) * self.stride]
    }
}

/// Round-to-nearest integer division for channel means. Truncating here
/// (`(sum / n) as u8`) darkens every averaged pixel by up to 1 LSB — a
/// systematic bias that leaks into the BBM detection thresholds. Public so
/// every channel-averaging site in the workspace (blur kernels, pyramid
/// levels, the matting estimator's region means) shares one rounding rule;
/// the box kernels apply it through [`Reciprocal`].
#[inline]
pub fn round_div(sum: u32, n: u32) -> u8 {
    ((sum + n / 2) / n) as u8
}

/// [`round_div`] for 64-bit accumulators — the same rounding rule for
/// channel sums over whole regions (e.g. the matting estimator's
/// caller-color mean), where `sum` can exceed `u32::MAX`.
#[inline]
pub fn round_div_u64(sum: u64, n: u64) -> u8 {
    ((sum + n / 2) / n) as u8
}

/// Builds a normalised 1-D Gaussian kernel with the given `sigma`, truncated
/// at three standard deviations.
///
/// # Errors
///
/// Returns [`ImagingError::InvalidParameter`] when `sigma` is not positive
/// and finite.
pub fn gaussian_kernel(sigma: f32) -> Result<Vec<f32>, ImagingError> {
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(ImagingError::InvalidParameter(format!(
            "gaussian sigma must be positive and finite, got {sigma}"
        )));
    }
    let radius = (3.0 * sigma).ceil() as i64;
    let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
    let denom = 2.0 * sigma * sigma;
    for d in -radius..=radius {
        kernel.push((-((d * d) as f32) / denom).exp());
    }
    let sum: f32 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    Ok(kernel)
}

/// Separable Gaussian blur with standard deviation `sigma`, edge-clamped.
///
/// # Errors
///
/// Returns [`ImagingError::InvalidParameter`] when `sigma` is not positive
/// and finite.
pub fn gaussian_blur(frame: &Frame, sigma: f32) -> Result<Frame, ImagingError> {
    let kernel = gaussian_kernel(sigma)?;
    let horizontal = convolve_1d(frame, &kernel, true);
    Ok(convolve_1d(&horizontal, &kernel, false))
}

#[inline]
fn quantize_f32(v: f32) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

/// 1-D convolution, restructured for straight-line inner loops while keeping
/// the floating-point result bit-identical to the naive per-pixel version:
/// every output accumulator still sums its taps in ascending kernel order,
/// so the (non-associative) f32 addition sequence is unchanged — the
/// interior/border split and the vertical loop interchange only remove the
/// per-tap clamp and the strided access, never reorder the adds.
fn convolve_1d(frame: &Frame, kernel: &[f32], horizontal: bool) -> Frame {
    let (w, h) = frame.dims();
    let radius = kernel.len() / 2;
    let mut out = Frame::new(w, h);
    if horizontal {
        let last = w as i64 - 1;
        // Interior = columns whose full window fits without clamping. A frame
        // narrower than the kernel has no interior: every column is border.
        let interior = if w > 2 * radius {
            radius..w - radius
        } else {
            0..0
        };
        for y in 0..h {
            let src = frame.row(y);
            let dst = out.row_mut(y);
            for x in (0..interior.start).chain(interior.end..w) {
                let (mut sr, mut sg, mut sb) = (0.0f32, 0.0f32, 0.0f32);
                for (ki, &kv) in kernel.iter().enumerate() {
                    let sx = (x as i64 + ki as i64 - radius as i64).clamp(0, last) as usize;
                    let p = src[sx];
                    sr += kv * p.r as f32;
                    sg += kv * p.g as f32;
                    sb += kv * p.b as f32;
                }
                dst[x] = Rgb::new(quantize_f32(sr), quantize_f32(sg), quantize_f32(sb));
            }
            for x in interior.clone() {
                let (mut sr, mut sg, mut sb) = (0.0f32, 0.0f32, 0.0f32);
                let window = &src[x - radius..x - radius + kernel.len()];
                for (&kv, p) in kernel.iter().zip(window) {
                    sr += kv * p.r as f32;
                    sg += kv * p.g as f32;
                    sb += kv * p.b as f32;
                }
                dst[x] = Rgb::new(quantize_f32(sr), quantize_f32(sg), quantize_f32(sb));
            }
        }
    } else {
        let last = h as i64 - 1;
        let mut accr = vec![0.0f32; w];
        let mut accg = vec![0.0f32; w];
        let mut accb = vec![0.0f32; w];
        for y in 0..h {
            accr.fill(0.0);
            accg.fill(0.0);
            accb.fill(0.0);
            for (ki, &kv) in kernel.iter().enumerate() {
                let sy = (y as i64 + ki as i64 - radius as i64).clamp(0, last) as usize;
                let src = frame.row(sy);
                for (x, p) in src.iter().enumerate() {
                    accr[x] += kv * p.r as f32;
                    accg[x] += kv * p.g as f32;
                    accb[x] += kv * p.b as f32;
                }
            }
            let dst = out.row_mut(y);
            for (x, d) in dst.iter_mut().enumerate() {
                *d = Rgb::new(
                    quantize_f32(accr[x]),
                    quantize_f32(accg[x]),
                    quantize_f32(accb[x]),
                );
            }
        }
    }
    out
}

/// Downsamples by 2 with a 2×2 box average (one pyramid level).
pub fn downsample(frame: &Frame) -> Frame {
    let (w, h) = frame.dims();
    let (nw, nh) = ((w / 2).max(1), (h / 2).max(1));
    Frame::from_fn(nw, nh, |x, y| {
        let (sx, sy) = (x * 2, y * 2);
        let mut acc = [0u32; 3];
        let mut n = 0u32;
        for dy in 0..2 {
            for dx in 0..2 {
                if let Some(p) = frame.try_get(sx + dx, sy + dy) {
                    acc[0] += p.r as u32;
                    acc[1] += p.g as u32;
                    acc[2] += p.b as u32;
                    n += 1;
                }
            }
        }
        Rgb::new(
            round_div(acc[0], n),
            round_div(acc[1], n),
            round_div(acc[2], n),
        )
    })
}

/// Upsamples to an explicit size with bilinear interpolation (the expand step
/// of a Laplacian pyramid).
pub fn upsample(frame: &Frame, width: usize, height: usize) -> Frame {
    let (w, h) = frame.dims();
    Frame::from_fn(width, height, |x, y| {
        let fx = (x as f32 + 0.5) * w as f32 / width as f32 - 0.5;
        let fy = (y as f32 + 0.5) * h as f32 / height as f32 - 0.5;
        bilinear(frame, fx, fy)
    })
}

/// Bilinear sample at a fractional coordinate, edge-clamped.
pub fn bilinear(frame: &Frame, fx: f32, fy: f32) -> Rgb {
    let (w, h) = frame.dims();
    let x0 = fx.floor().clamp(0.0, w as f32 - 1.0) as usize;
    let y0 = fy.floor().clamp(0.0, h as f32 - 1.0) as usize;
    let x1 = (x0 + 1).min(w - 1);
    let y1 = (y0 + 1).min(h - 1);
    let tx = (fx - x0 as f32).clamp(0.0, 1.0);
    let ty = (fy - y0 as f32).clamp(0.0, 1.0);
    let top = frame.get(x0, y0).lerp(frame.get(x1, y0), tx);
    let bottom = frame.get(x0, y1).lerp(frame.get(x1, y1), tx);
    top.lerp(bottom, ty)
}

/// Blends `fg` over `bg` through a per-pixel alpha matte in `[0, 1]`
/// (`1` = pure foreground). This is the alpha-blending primitive of §III.
///
/// # Errors
///
/// Returns [`ImagingError::DimensionMismatch`] when dimensions differ, and
/// [`ImagingError::InvalidParameter`] when `alpha.len()` does not match.
pub fn alpha_blend(fg: &Frame, bg: &Frame, alpha: &[f32]) -> Result<Frame, ImagingError> {
    fg.check_same_dims(bg)?;
    if alpha.len() != fg.resolution() {
        return Err(ImagingError::InvalidParameter(format!(
            "alpha matte length {} does not match resolution {}",
            alpha.len(),
            fg.resolution()
        )));
    }
    let (w, h) = fg.dims();
    let mut out = Frame::new(w, h);
    for (i, p) in out.pixels_mut().iter_mut().enumerate() {
        let a = alpha[i].clamp(0.0, 1.0);
        *p = bg.pixels()[i].lerp(fg.pixels()[i], a);
    }
    Ok(out)
}

/// Builds a soft alpha matte from a binary mask by Gaussian-blurring its
/// indicator function — the standard way matting systems feather a hard
/// segmentation boundary before compositing.
///
/// # Errors
///
/// Returns [`ImagingError::InvalidParameter`] when `sigma` is invalid.
pub fn soft_matte(mask: &Mask, sigma: f32) -> Result<Vec<f32>, ImagingError> {
    let kernel = gaussian_kernel(sigma)?;
    let (w, h) = mask.dims();
    let radius = (kernel.len() / 2) as i64;
    // Horizontal pass.
    let mut tmp = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (ki, &kv) in kernel.iter().enumerate() {
                let sx = (x as i64 + ki as i64 - radius).clamp(0, w as i64 - 1) as usize;
                if mask.get(sx, y) {
                    acc += kv;
                }
            }
            tmp[y * w + x] = acc;
        }
    }
    // Vertical pass.
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (ki, &kv) in kernel.iter().enumerate() {
                let sy = (y as i64 + ki as i64 - radius).clamp(0, h as i64 - 1) as usize;
                acc += kv * tmp[sy * w + x];
            }
            out[y * w + x] = acc.clamp(0.0, 1.0);
        }
    }
    Ok(out)
}

/// Laplacian-pyramid blend of `fg` over `bg` guided by a binary mask, with
/// `levels` pyramid levels (§III's third blending family).
///
/// # Errors
///
/// Returns [`ImagingError::DimensionMismatch`] on size mismatch and
/// [`ImagingError::InvalidParameter`] when `levels == 0`.
pub fn laplacian_blend(
    fg: &Frame,
    bg: &Frame,
    mask: &Mask,
    levels: usize,
) -> Result<Frame, ImagingError> {
    fg.check_same_dims(bg)?;
    fg.check_mask_dims(mask)?;
    if levels == 0 {
        return Err(ImagingError::InvalidParameter(
            "laplacian blend needs at least one level".into(),
        ));
    }

    // Gaussian pyramids of both images and the matte.
    let mut fg_pyr = vec![fg.clone()];
    let mut bg_pyr = vec![bg.clone()];
    let (w, h) = fg.dims();
    let mut matte: Vec<Vec<f32>> = vec![mask.iter().map(|b| u8::from(b) as f32).collect()];
    let mut sizes = vec![(w, h)];
    for _ in 1..levels {
        let (lw, lh) = *sizes.last().expect("sizes is non-empty");
        if lw < 4 || lh < 4 {
            break;
        }
        fg_pyr.push(downsample(fg_pyr.last().expect("pyramid non-empty")));
        bg_pyr.push(downsample(bg_pyr.last().expect("pyramid non-empty")));
        let (nw, nh) = fg_pyr.last().expect("pyramid non-empty").dims();
        let prev = matte.last().expect("matte non-empty");
        let mut small = vec![0.0f32; nw * nh];
        for y in 0..nh {
            for x in 0..nw {
                let mut acc = 0.0;
                let mut n = 0.0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let sx = x * 2 + dx;
                        let sy = y * 2 + dy;
                        if sx < lw && sy < lh {
                            acc += prev[sy * lw + sx];
                            n += 1.0;
                        }
                    }
                }
                small[y * nw + x] = acc / n;
            }
        }
        matte.push(small);
        sizes.push((nw, nh));
    }

    // Blend the coarsest level directly, then propagate detail back up.
    let top = fg_pyr.len() - 1;
    let mut result = alpha_blend(&fg_pyr[top], &bg_pyr[top], &matte[top])?;
    for level in (0..top).rev() {
        let (lw, lh) = sizes[level];
        let up = upsample(&result, lw, lh);
        // Laplacian detail of each source at this level.
        let fg_up = upsample(&fg_pyr[level + 1], lw, lh);
        let bg_up = upsample(&bg_pyr[level + 1], lw, lh);
        let mut next = Frame::new(lw, lh);
        #[allow(clippy::needless_range_loop)] // i indexes three parallel buffers
        for i in 0..lw * lh {
            let a = matte[level][i].clamp(0.0, 1.0);
            let f_orig = fg_pyr[level].pixels()[i];
            let f_low = fg_up.pixels()[i];
            let b_orig = bg_pyr[level].pixels()[i];
            let b_low = bg_up.pixels()[i];
            let u = up.pixels()[i];
            let mix = |fo: u8, fl: u8, bo: u8, bl: u8, base: u8| -> u8 {
                let lap = a * (fo as f32 - fl as f32) + (1.0 - a) * (bo as f32 - bl as f32);
                (base as f32 + lap).round().clamp(0.0, 255.0) as u8
            };
            next.pixels_mut()[i] = Rgb::new(
                mix(f_orig.r, f_low.r, b_orig.r, b_low.r, u.r),
                mix(f_orig.g, f_low.g, b_orig.g, b_low.g, u.g),
                mix(f_orig.b, f_low.b, b_orig.b, b_low.b, u.b),
            );
        }
        result = next;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_blur_preserves_constant_image() {
        let f = Frame::filled(8, 8, Rgb::new(40, 80, 120));
        assert_eq!(box_blur(&f, 2), f);
    }

    #[test]
    fn box_blur_zero_radius_is_identity() {
        let f = Frame::from_fn(6, 6, |x, y| Rgb::grey((x * y) as u8));
        assert_eq!(box_blur(&f, 0), f);
    }

    #[test]
    fn box_blur_smooths_step_edge() {
        let f = Frame::from_fn(10, 4, |x, _| if x < 5 { Rgb::BLACK } else { Rgb::WHITE });
        let b = box_blur(&f, 1);
        let mid = b.get(5, 2).luma();
        assert!(mid > 0 && mid < 255, "edge should be smoothed, got {mid}");
    }

    #[test]
    fn box_blur_rounds_to_nearest() {
        // A [1, 2, 2] row under radius 1: the centre mean is 5/3 ≈ 1.67,
        // which must round to 2 (truncation gave 1 — a darkening bias).
        let mut f = Frame::new(3, 1);
        f.put(0, 0, Rgb::grey(1));
        f.put(1, 0, Rgb::grey(2));
        f.put(2, 0, Rgb::grey(2));
        let b = box_blur(&f, 1);
        assert_eq!(b.get(1, 0), Rgb::grey(2));
    }

    #[test]
    fn deblur_box_zero_radius_or_iterations_is_identity() {
        let f = Frame::from_fn(6, 5, |x, y| Rgb::grey((31 * x + 7 * y) as u8));
        assert_eq!(deblur_box(&f, 0, 3), f);
        assert_eq!(deblur_box(&f, 2, 0), f);
    }

    #[test]
    fn deblur_box_preserves_constant_image() {
        let f = Frame::filled(8, 8, Rgb::new(40, 80, 120));
        assert_eq!(deblur_box(&f, 3, 3), f);
    }

    #[test]
    fn deblur_box_sharpens_a_blurred_edge() {
        // Blur a step edge, then deblur: the estimate must land closer to
        // the original step than the blurred observation did.
        let step = Frame::from_fn(24, 8, |x, _| if x < 12 { Rgb::BLACK } else { Rgb::WHITE });
        let blurred = box_blur(&step, 2);
        let restored = deblur_box(&blurred, 2, 3);
        let err = |f: &Frame| {
            f.pixels()
                .iter()
                .zip(step.pixels())
                .map(|(a, b)| a.linf(*b) as u64)
                .sum::<u64>()
        };
        assert!(
            err(&restored) < err(&blurred),
            "deblur must reduce edge error: {} vs {}",
            err(&restored),
            err(&blurred)
        );
    }

    #[test]
    fn downsample_rounds_to_nearest() {
        // 2×2 patch [1, 2, 2, 2]: mean 1.75 → 2 (truncation gave 1).
        let mut f = Frame::filled(2, 2, Rgb::grey(2));
        f.put(0, 0, Rgb::grey(1));
        assert_eq!(downsample(&f).get(0, 0), Rgb::grey(2));
    }

    #[test]
    fn gaussian_kernel_is_normalised() {
        let k = gaussian_kernel(1.5).unwrap();
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(k.len() % 2, 1);
        // Symmetric.
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn gaussian_kernel_rejects_bad_sigma() {
        assert!(gaussian_kernel(0.0).is_err());
        assert!(gaussian_kernel(-1.0).is_err());
        assert!(gaussian_kernel(f32::NAN).is_err());
    }

    #[test]
    fn gaussian_blur_preserves_constant() {
        let f = Frame::filled(8, 8, Rgb::new(99, 99, 0));
        let b = gaussian_blur(&f, 1.0).unwrap();
        for &p in b.pixels() {
            assert!(p.linf(Rgb::new(99, 99, 0)) <= 1);
        }
    }

    #[test]
    fn downsample_halves_dims() {
        let f = Frame::new(8, 6);
        assert_eq!(downsample(&f).dims(), (4, 3));
        let tiny = Frame::new(1, 1);
        assert_eq!(downsample(&tiny).dims(), (1, 1));
    }

    #[test]
    fn upsample_hits_target_dims() {
        let f = Frame::filled(3, 3, Rgb::grey(77));
        let u = upsample(&f, 7, 5);
        assert_eq!(u.dims(), (7, 5));
        assert!(u.pixels().iter().all(|&p| p == Rgb::grey(77)));
    }

    #[test]
    fn alpha_blend_endpoints() {
        let fg = Frame::filled(2, 2, Rgb::WHITE);
        let bg = Frame::filled(2, 2, Rgb::BLACK);
        let all_fg = alpha_blend(&fg, &bg, &[1.0; 4]).unwrap();
        let all_bg = alpha_blend(&fg, &bg, &[0.0; 4]).unwrap();
        assert_eq!(all_fg, fg);
        assert_eq!(all_bg, bg);
        let mid = alpha_blend(&fg, &bg, &[0.5; 4]).unwrap();
        assert_eq!(mid.get(0, 0), Rgb::grey(128));
    }

    #[test]
    fn alpha_blend_validates_matte_length() {
        let fg = Frame::new(2, 2);
        let bg = Frame::new(2, 2);
        assert!(alpha_blend(&fg, &bg, &[0.0; 3]).is_err());
    }

    #[test]
    fn soft_matte_is_one_inside_and_zero_far_away() {
        let m = Mask::from_fn(20, 20, |x, y| {
            (6..=13).contains(&x) && (6..=13).contains(&y)
        });
        let a = soft_matte(&m, 1.0).unwrap();
        assert!(a[10 * 20 + 10] > 0.9, "centre {}", a[10 * 20 + 10]);
        assert!(a[0] < 0.01);
        // Boundary is intermediate.
        let edge = a[10 * 20 + 6];
        assert!(edge > 0.05 && edge < 0.95, "edge {edge}");
    }

    #[test]
    fn laplacian_blend_respects_mask_interior() {
        let fg = Frame::filled(16, 16, Rgb::new(200, 0, 0));
        let bg = Frame::filled(16, 16, Rgb::new(0, 0, 200));
        let mask = Mask::from_fn(16, 16, |x, _| x < 8);
        let out = laplacian_blend(&fg, &bg, &mask, 3).unwrap();
        // Deep inside each region, colors match the source.
        assert!(out.get(1, 8).abs_diff(Rgb::new(200, 0, 0)).r < 60);
        assert!(out.get(14, 8).abs_diff(Rgb::new(0, 0, 200)).b < 60);
        // Seam is a mixture.
        let seam = out.get(8, 8);
        assert!(seam.r > 10 && seam.b > 10);
    }

    #[test]
    fn laplacian_blend_rejects_zero_levels() {
        let f = Frame::new(4, 4);
        let m = Mask::new(4, 4);
        assert!(laplacian_blend(&f, &f, &m, 0).is_err());
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let mut f = Frame::new(2, 1);
        f.put(0, 0, Rgb::grey(0));
        f.put(1, 0, Rgb::grey(100));
        let mid = bilinear(&f, 0.5, 0.0);
        assert_eq!(mid, Rgb::grey(50));
    }
}
