//! Grayscale images with PGM I/O.

use crate::error::VisionError;
use std::io::{BufRead, Write};
use std::path::Path;

/// A grayscale image with `f32` samples in the nominal range `[0, 255]`.
///
/// # Example
///
/// ```
/// use vision::GrayImage;
///
/// let img = GrayImage::from_fn(4, 2, |x, y| (x + 4 * y) as f32);
/// assert_eq!(img.get(3, 1), 7.0);
/// assert_eq!(img.width(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates an image filled with a constant value.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        GrayImage {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from a generator function.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(width: usize, height: usize, mut f: F) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Creates an image from raw row-major samples.
    ///
    /// # Panics
    ///
    /// Panics if the sample count does not match the dimensions.
    pub fn from_raw(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        assert_eq!(data.len(), width * height, "sample count mismatch");
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image has no pixels (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Sample with coordinates clamped to the image border (the standard
    /// boundary handling for matching costs).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sets the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = value;
    }

    /// Raw samples, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The image translated left by `shift` pixels (border-clamped): a
    /// synthetic "right view" with constant disparity `shift`.
    pub fn shifted_left(&self, shift: usize) -> GrayImage {
        GrayImage::from_fn(self.width, self.height, |x, y| {
            self.get_clamped(x as isize + shift as isize, y as isize)
        })
    }

    /// Minimum and maximum sample values.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// A copy linearly rescaled so samples span `[0, 255]` (constant
    /// images map to 0).
    pub fn normalized(&self) -> GrayImage {
        let (lo, hi) = self.min_max();
        let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
        GrayImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| (v - lo) * scale).collect(),
        }
    }

    /// Serialises as binary PGM (P5, 8-bit), clamping samples to
    /// `[0, 255]`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_pgm<W: Write>(&self, mut w: W) -> Result<(), VisionError> {
        write!(w, "P5\n{} {}\n255\n", self.width, self.height)?;
        let bytes: Vec<u8> = self
            .data
            .iter()
            .map(|&v| v.round().clamp(0.0, 255.0) as u8)
            .collect();
        w.write_all(&bytes)?;
        Ok(())
    }

    /// Writes a PGM file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_pgm<P: AsRef<Path>>(&self, path: P) -> Result<(), VisionError> {
        let file = std::fs::File::create(path)?;
        self.write_pgm(std::io::BufWriter::new(file))
    }

    /// Parses a binary (P5) or ASCII (P2) PGM stream.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::BadImageFormat`] for malformed input.
    pub fn read_pgm<R: BufRead>(mut r: R) -> Result<GrayImage, VisionError> {
        let mut content = Vec::new();
        r.read_to_end(&mut content)?;
        let bad = |reason: &str| VisionError::BadImageFormat {
            reason: reason.to_owned(),
        };
        // Parse header tokens (magic, width, height, maxval), skipping
        // comments.
        let mut pos = 0usize;
        let mut tokens: Vec<String> = Vec::new();
        while tokens.len() < 4 && pos < content.len() {
            // Skip whitespace.
            while pos < content.len() && content[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < content.len() && content[pos] == b'#' {
                while pos < content.len() && content[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            let start = pos;
            while pos < content.len() && !content[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos > start {
                tokens.push(
                    String::from_utf8(content[start..pos].to_vec())
                        .map_err(|_| bad("non-utf8 header"))?,
                );
            }
        }
        if tokens.len() < 4 {
            return Err(bad("truncated header"));
        }
        let magic = tokens[0].as_str();
        let width: usize = tokens[1].parse().map_err(|_| bad("bad width"))?;
        let height: usize = tokens[2].parse().map_err(|_| bad("bad height"))?;
        let maxval: u32 = tokens[3].parse().map_err(|_| bad("bad maxval"))?;
        if width == 0 || height == 0 || maxval == 0 || maxval > 255 {
            return Err(bad("unsupported dimensions or maxval"));
        }
        let npix = width * height;
        let data: Vec<f32> = match magic {
            "P5" => {
                // One whitespace byte after maxval, then raw samples.
                pos += 1;
                if content.len() < pos + npix {
                    return Err(bad("truncated pixel data"));
                }
                content[pos..pos + npix].iter().map(|&b| b as f32).collect()
            }
            "P2" => {
                let text = String::from_utf8(content[pos..].to_vec())
                    .map_err(|_| bad("non-utf8 ascii data"))?;
                let vals: Result<Vec<f32>, _> = text
                    .split_whitespace()
                    .take(npix)
                    .map(|t| t.parse::<f32>())
                    .collect();
                let vals = vals.map_err(|_| bad("bad ascii sample"))?;
                if vals.len() < npix {
                    return Err(bad("truncated ascii data"));
                }
                vals
            }
            _ => return Err(bad("unknown magic (want P2 or P5)")),
        };
        Ok(GrayImage {
            width,
            height,
            data,
        })
    }

    /// Loads a PGM file from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn load_pgm<P: AsRef<Path>>(path: P) -> Result<GrayImage, VisionError> {
        let file = std::fs::File::open(path)?;
        GrayImage::read_pgm(std::io::BufReader::new(file))
    }

    /// Serialises as grayscale PFM (`Pf`, 32-bit float, little-endian) —
    /// the format Middlebury distributes ground-truth disparities in, so
    /// real benchmark data can be exchanged with this toolkit.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_pfm<W: Write>(&self, mut w: W) -> Result<(), VisionError> {
        // Negative scale ⇒ little-endian samples.
        write!(w, "Pf\n{} {}\n-1.0\n", self.width, self.height)?;
        // PFM stores rows bottom-to-top.
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                w.write_all(&self.get(x, y).to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Parses a grayscale PFM stream (`Pf`, either endianness).
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::BadImageFormat`] for malformed input.
    pub fn read_pfm<R: BufRead>(mut r: R) -> Result<GrayImage, VisionError> {
        let mut content = Vec::new();
        r.read_to_end(&mut content)?;
        let bad = |reason: &str| VisionError::BadImageFormat {
            reason: reason.to_owned(),
        };
        let mut pos = 0usize;
        let mut tokens: Vec<String> = Vec::new();
        while tokens.len() < 4 && pos < content.len() {
            while pos < content.len() && content[pos].is_ascii_whitespace() {
                pos += 1;
            }
            let start = pos;
            while pos < content.len() && !content[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos > start {
                tokens.push(
                    String::from_utf8(content[start..pos].to_vec())
                        .map_err(|_| bad("non-utf8 header"))?,
                );
            }
        }
        if tokens.len() < 4 {
            return Err(bad("truncated header"));
        }
        if tokens[0] != "Pf" {
            return Err(bad("unknown magic (want Pf; color PF is unsupported)"));
        }
        let width: usize = tokens[1].parse().map_err(|_| bad("bad width"))?;
        let height: usize = tokens[2].parse().map_err(|_| bad("bad height"))?;
        let scale: f32 = tokens[3].parse().map_err(|_| bad("bad scale"))?;
        if width == 0 || height == 0 || scale == 0.0 {
            return Err(bad("unsupported dimensions or scale"));
        }
        pos += 1; // single whitespace after the scale
        let npix = width * height;
        if content.len() < pos + npix * 4 {
            return Err(bad("truncated pixel data"));
        }
        let little_endian = scale < 0.0;
        let mut data = vec![0.0f32; npix];
        for i in 0..npix {
            let b: [u8; 4] = content[pos + 4 * i..pos + 4 * i + 4]
                .try_into()
                .expect("bounds checked");
            let v = if little_endian {
                f32::from_le_bytes(b)
            } else {
                f32::from_be_bytes(b)
            };
            // PFM rows run bottom-to-top.
            let row = i / width;
            let col = i % width;
            data[(height - 1 - row) * width + col] = v;
        }
        Ok(GrayImage {
            width,
            height,
            data,
        })
    }

    /// Loads a grayscale PFM file from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn load_pfm<P: AsRef<Path>>(path: P) -> Result<GrayImage, VisionError> {
        let file = std::fs::File::open(path)?;
        GrayImage::read_pfm(std::io::BufReader::new(file))
    }
}

/// Renders a label field as a gray-coded image (labels spread over
/// `[0, 255]`), the disparity-map visualisation of Figs. 4/6/9.
pub fn labels_to_image(field: &mrf::LabelField) -> GrayImage {
    let grid = field.grid();
    let k = (field.num_labels().max(2) - 1) as f32;
    GrayImage::from_fn(grid.width(), grid.height(), |x, y| {
        field.get(grid.index(x, y)) as f32 * 255.0 / k
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_binary_pgm() {
        let img = GrayImage::from_fn(7, 5, |x, y| ((x * 37 + y * 11) % 256) as f32);
        let mut buf = Vec::new();
        img.write_pgm(&mut buf).unwrap();
        let back = GrayImage::read_pgm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn parses_ascii_pgm_with_comments() {
        let text = b"P2\n# a comment\n3 2\n255\n0 10 20\n30 40 50\n";
        let img = GrayImage::read_pgm(&text[..]).unwrap();
        assert_eq!(img.width(), 3);
        assert_eq!(img.get(2, 1), 50.0);
    }

    #[test]
    fn rejects_malformed_pgm() {
        assert!(
            GrayImage::read_pgm(&b"P5\n3 2\n"[..]).is_err(),
            "truncated header"
        );
        assert!(
            GrayImage::read_pgm(&b"P7\n3 2\n255\n"[..]).is_err(),
            "bad magic"
        );
        assert!(
            GrayImage::read_pgm(&b"P5\n3 2\n255\nab"[..]).is_err(),
            "truncated data"
        );
        assert!(
            GrayImage::read_pgm(&b"P5\n0 2\n255\n"[..]).is_err(),
            "zero width"
        );
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("ret_rsu_image_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.pgm");
        let img = GrayImage::from_fn(9, 4, |x, y| (x * y % 250) as f32);
        img.save_pgm(&path).unwrap();
        let back = GrayImage::load_pgm(&path).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn clamped_access_extends_borders() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x + 3 * y) as f32);
        assert_eq!(img.get_clamped(-5, 0), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 2), img.get(2, 2));
        assert_eq!(img.get_clamped(1, -1), img.get(1, 0));
    }

    #[test]
    fn shifted_left_creates_constant_disparity() {
        let img = GrayImage::from_fn(10, 3, |x, _| (x * 20) as f32);
        let right = img.shifted_left(2);
        // right(x) = left(x + 2) in the interior.
        for x in 0..7 {
            assert_eq!(right.get(x, 1), img.get(x + 2, 1));
        }
    }

    #[test]
    fn normalization_spans_full_range() {
        let img = GrayImage::from_fn(4, 4, |x, y| 50.0 + (x + y) as f32);
        let n = img.normalized();
        let (lo, hi) = n.min_max();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 255.0);
        // Constant image normalises to zero, not NaN.
        let c = GrayImage::filled(3, 3, 42.0).normalized();
        assert_eq!(c.min_max(), (0.0, 0.0));
    }

    #[test]
    fn labels_to_image_spreads_gray_levels() {
        let grid = mrf::Grid::new(2, 1);
        let field = mrf::LabelField::from_labels(grid, 4, vec![0, 3]);
        let img = labels_to_image(&field);
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(1, 0), 255.0);
    }

    #[test]
    fn roundtrip_pfm_preserves_floats_exactly() {
        let img = GrayImage::from_fn(5, 4, |x, y| (x as f32 * 0.37 - y as f32 * 2.11).exp());
        let mut buf = Vec::new();
        img.write_pfm(&mut buf).unwrap();
        let back = GrayImage::read_pfm(&buf[..]).unwrap();
        assert_eq!(back, img, "PFM is lossless for f32 samples");
    }

    #[test]
    fn pfm_big_endian_scale_is_honoured() {
        // Hand-build a 1x1 big-endian PFM containing 2.0.
        let mut buf: Vec<u8> = b"Pf\n1 1\n1.0\n".to_vec();
        buf.extend_from_slice(&2.0f32.to_be_bytes());
        let img = GrayImage::read_pfm(&buf[..]).unwrap();
        assert_eq!(img.get(0, 0), 2.0);
    }

    #[test]
    fn pfm_rejects_malformed_input() {
        assert!(
            GrayImage::read_pfm(&b"PF\n1 1\n-1.0\n\0\0\0\0"[..]).is_err(),
            "color PFM"
        );
        assert!(
            GrayImage::read_pfm(&b"Pf\n1 1\n-1.0\n\0\0"[..]).is_err(),
            "truncated"
        );
        assert!(
            GrayImage::read_pfm(&b"Pf\n0 1\n-1.0\n"[..]).is_err(),
            "zero width"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        GrayImage::filled(2, 2, 0.0).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "sample count")]
    fn from_raw_validates_length() {
        GrayImage::from_raw(2, 2, vec![0.0; 3]);
    }
}
