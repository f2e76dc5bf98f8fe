//! DICOM-like synthetic medical images.
//!
//! The paper's application server "holds four images of different 3D views"
//! per page — the computer-assisted-surgery workload of reference \[29\],
//! where the Bitmap protocol was shown to win on DICOM/BMP formats. The
//! key property: between versions, most pixels are *identical in place*
//! (small re-rendered regions), which fixed-position block diffing
//! exploits and content-shifting does not disturb.
//!
//! Images are 16-bit little-endian grayscale with a small DICOM-flavoured
//! header, rendered from a deterministic sum of Gaussian-ish blobs plus
//! quantized low-amplitude noise.

use fractal_crypto::wire::{counted, Sink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One rendered image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// 16-bit pixels, row-major.
    pub pixels: Vec<u16>,
}

impl Image {
    /// Renders an image of `width × height` from `n_blobs` soft blobs,
    /// deterministically from `seed`. An empty image draws no blobs.
    ///
    /// The field is summed a row at a time: blobs outer, pixels inner, so
    /// the pixel loop is straight-line arithmetic over a row of `f64`s that
    /// the compiler vectorizes. Each pixel still adds the same terms in blob
    /// order from `0.0` (Rust never fuses them into FMA), so the pixels are
    /// those of the per-pixel loop this replaced, bit for bit;
    /// `tests/render_identity.rs` keeps that loop as its oracle.
    pub fn render(seed: u64, width: usize, height: usize, n_blobs: usize) -> Image {
        if width == 0 || height == 0 {
            return Image { width, height, pixels: Vec::new() };
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1357_9bdf_2468_ace0);
        let short_side = width.min(height) as f64;
        let blobs: Vec<(f64, f64, f64, f64)> = (0..n_blobs)
            .map(|_| {
                (
                    rng.gen_range(0.0..width as f64),
                    rng.gen_range(0.0..height as f64),
                    rng.gen_range(short_side * 0.05..short_side * 0.3),
                    rng.gen_range(500.0..8000.0),
                )
            })
            .collect();
        let xs: Vec<f64> = (0..width).map(|x| x as f64).collect();
        let mut row = vec![0.0f64; width];
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            row.fill(0.0);
            for &(bx, by, r, amp) in &blobs {
                let dy = y as f64 - by;
                let (dy2, r2) = (dy * dy, r * r);
                for (v, &x) in row.iter_mut().zip(&xs) {
                    let dx = x - bx;
                    *v += amp / (1.0 + (dx * dx + dy2) / r2);
                }
            }
            // Coarse acquisition quantization (DICOM-style window
            // levelling) plus periodic sensor dither: gives the smooth
            // field byte-level plateaus so the serialized image
            // compresses ~2.5x under LZ77 (page-level ratio ~0.40), like real medical imagery.
            pixels.extend(row.iter().enumerate().map(|(x, &v)| {
                let quantized = (v / 64.0).round() * 64.0;
                let noise = ((x * 31 + y * 17) % 7) as f64;
                (quantized + noise).min(65535.0) as u16
            }));
        }
        Image { width, height, pixels }
    }

    /// Re-renders a rectangular region with a different seed — a new "3D
    /// view angle" over part of the volume. Pixels outside the region stay
    /// byte-identical (the Bitmap-friendly edit). The region is clamped to
    /// the image; one that clamps to nothing leaves the image as it was.
    pub fn edit_region(&mut self, seed: u64, x0: usize, y0: usize, w: usize, h: usize) {
        let x1 = (x0 + w).min(self.width);
        let y1 = (y0 + h).min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let patch = Image::render(seed, x1 - x0, y1 - y0, 3);
        for (y, src) in (y0..y1).zip(patch.pixels.chunks_exact(patch.width)) {
            self.pixels[y * self.width + x0..y * self.width + x1].copy_from_slice(src);
        }
    }

    /// Wire size of this image, counted instead of written.
    pub(crate) fn wire_len(&self) -> usize {
        counted(|c| self.encode(c))
    }

    /// Serializes to the wire form: header + little-endian pixels.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode(&mut out);
        out
    }

    /// Appends the wire form to `out`: the pixels go a block at a time.
    pub(crate) fn encode(&self, out: &mut impl Sink) {
        out.put(b"DICM"); // flavour marker
        out.u32(self.width as u32);
        out.u32(self.height as u32);
        out.u16(16); // bits per pixel
        out.u16(1); // samples per pixel
        let mut block = [0u8; 256];
        for pixels in self.pixels.chunks(block.len() / 2) {
            for (le, p) in block.chunks_exact_mut(2).zip(pixels) {
                le.copy_from_slice(&p.to_le_bytes());
            }
            out.put(&block[..pixels.len() * 2]);
        }
    }

    /// Parses the wire form back (used in tests).
    pub fn from_bytes(bytes: &[u8]) -> Option<Image> {
        if bytes.len() < 16 || &bytes[..4] != b"DICM" {
            return None;
        }
        let width = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        let height = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        let body = &bytes[16..];
        if body.len() != width * height * 2 {
            return None;
        }
        let pixels = body.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect();
        Some(Image { width, height, pixels })
    }

    /// Fraction of pixels differing from `other` (same dimensions assumed).
    pub fn diff_fraction(&self, other: &Image) -> f64 {
        let differing = self.pixels.iter().zip(&other.pixels).filter(|(a, b)| a != b).count();
        differing as f64 / self.pixels.len().max(1) as f64
    }
}

/// Renders the standard case-study image: ~32.5 KB (four per page ≈ 130 KB),
/// i.e. 127×128 16-bit pixels.
pub fn standard_view(seed: u64) -> Image {
    Image::render(seed, 127, 128, 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_render() {
        let a = Image::render(7, 64, 64, 4);
        let b = Image::render(7, 64, 64, 4);
        assert_eq!(a, b);
        let c = Image::render(8, 64, 64, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn standard_view_size() {
        let img = standard_view(1);
        let bytes = img.to_bytes();
        // 4 such images ≈ 130 KB, per the paper.
        let four = bytes.len() * 4;
        assert!((120_000..140_000).contains(&four), "4 images = {four} bytes, want ≈130KB");
    }

    #[test]
    fn serialization_round_trip() {
        let img = Image::render(2, 33, 17, 3);
        assert_eq!(Image::from_bytes(&img.to_bytes()), Some(img));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Image::from_bytes(b"nope").is_none());
        let mut bytes = Image::render(1, 8, 8, 1).to_bytes();
        bytes.truncate(bytes.len() - 2);
        assert!(Image::from_bytes(&bytes).is_none());
    }

    #[test]
    fn region_edit_is_localized() {
        let base = standard_view(3);
        let mut edited = base.clone();
        edited.edit_region(99, 10, 10, 30, 30);
        let frac = base.diff_fraction(&edited);
        // 30×30 of 127×128 ≈ 5.5%; allow some identical re-rendered pixels.
        assert!(frac > 0.01 && frac < 0.08, "diff fraction {frac}");
    }

    #[test]
    fn edit_region_clamps_to_bounds() {
        let mut img = Image::render(4, 20, 20, 2);
        img.edit_region(5, 15, 15, 100, 100); // overflows: clamps
        assert_eq!(img.pixels.len(), 400);
    }

    #[test]
    fn an_empty_image_draws_no_blobs() {
        for (w, h) in [(0, 5), (5, 0), (0, 0)] {
            let img = Image::render(1, w, h, 3);
            assert_eq!(img, Image { width: w, height: h, pixels: Vec::new() });
            assert_eq!(Image::from_bytes(&img.to_bytes()), Some(img));
        }
    }

    #[test]
    fn an_edit_that_clamps_to_nothing_is_a_no_op() {
        let base = Image::render(4, 20, 20, 2);
        let mut img = base.clone();
        img.edit_region(5, 25, 25, 3, 3); // wholly outside
        img.edit_region(5, 20, 0, 3, 3); // starts at the right edge
        img.edit_region(5, 3, 3, 0, 4); // zero width
        assert_eq!(img, base);
    }

    #[test]
    fn images_have_smooth_structure() {
        // Neighboring pixels should usually be close — the property that
        // makes these images unlike random noise.
        let img = standard_view(6);
        let mut close = 0usize;
        let mut total = 0usize;
        for y in 0..img.height {
            for x in 1..img.width {
                let a = img.pixels[y * img.width + x - 1] as i32;
                let b = img.pixels[y * img.width + x] as i32;
                if (a - b).abs() < 200 {
                    close += 1;
                }
                total += 1;
            }
        }
        assert!(close as f64 / total as f64 > 0.9);
    }
}
