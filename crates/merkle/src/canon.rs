//! Canonical byte serialization for hashing.
//!
//! `canon(·)` must be injective over the committed domain: two different
//! tensors (or operator signatures) must never serialize to the same
//! bytes. Every variable-length field is therefore length-prefixed.
//!
//! Encoders come in two forms with identical output: the materializing
//! `canon_*` functions (seed behavior, and the differential oracles) and
//! the streaming `canon_*_sink` versions, which feed the same byte
//! sequence directly into a [`CanonSink`] — typically a hasher — so the
//! commitment hot path never allocates a per-leaf buffer.

use std::borrow::Cow;

use tao_graph::Node;
use tao_tensor::{Element, Tensor};

/// A byte sink for the streaming canonical encoders: an accumulating
/// `Vec<u8>` (materializing path) or an incremental hasher (the
/// zero-allocation commitment path).
pub trait CanonSink {
    /// Absorbs the next bytes of the canonical encoding.
    fn put(&mut self, bytes: &[u8]);
}

impl CanonSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl CanonSink for crate::sha256::Sha256 {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

impl CanonSink for crate::sha256::FastSha256 {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Appends a length-prefixed byte string.
fn put_bytes(out: &mut impl CanonSink, bytes: &[u8]) {
    out.put(&(bytes.len() as u64).to_le_bytes());
    out.put(bytes);
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(out: &mut impl CanonSink, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// The canonical little-endian element bytes of `data`. On little-endian
/// targets the in-memory representation of the sealed float element types
/// *is* the canonical encoding, so the slice is borrowed with no
/// conversion buffer.
pub(crate) fn element_bytes<T: Element>(data: &[T]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `Element` is sealed to `f32`/`f64`, plain-old-data types
        // whose little-endian memory layout equals their canonical
        // `to_le_bytes` encoding on this target.
        Cow::Borrowed(unsafe {
            core::slice::from_raw_parts(data.as_ptr().cast::<u8>(), core::mem::size_of_val(data))
        })
    }
    #[cfg(not(target_endian = "little"))]
    Cow::Owned(data.iter().flat_map(|v| v.to_le_bytes_vec()).collect())
}

/// Byte length of [`canon_tensor`]'s encoding without materializing it.
pub fn canon_tensor_len<T: Element>(t: &Tensor<T>) -> usize {
    8 + T::DTYPE.len() + 8 + 16 * t.rank() + core::mem::size_of::<T>() * t.len()
}

/// Streams [`canon_tensor`]'s exact byte sequence into `sink` without
/// allocating: dtype tag, shape, row-major strides, then raw little-endian
/// element bytes.
pub fn canon_tensor_sink<T: Element>(t: &Tensor<T>, sink: &mut impl CanonSink) {
    canon_tensor_header_sink(t, sink);
    sink.put(&element_bytes(t.data()));
}

/// The part of [`canon_tensor`] before the element bytes: dtype tag,
/// shape and row-major strides.
pub(crate) fn canon_tensor_header_sink<T: Element>(t: &Tensor<T>, sink: &mut impl CanonSink) {
    put_str(sink, T::DTYPE);
    sink.put(&(t.rank() as u64).to_le_bytes());
    for &d in t.dims() {
        sink.put(&(d as u64).to_le_bytes());
    }
    for s in t.shape().strides() {
        sink.put(&(s as u64).to_le_bytes());
    }
}

/// Canonical serialization of a tensor: dtype tag, shape, row-major
/// strides, then raw little-endian element bytes.
pub fn canon_tensor<T: Element>(t: &Tensor<T>) -> Vec<u8> {
    let mut out = Vec::with_capacity(canon_tensor_len(t));
    canon_tensor_sink(t, &mut out);
    out
}

/// Streams [`canon_param`]'s exact byte sequence into `sink` without
/// materializing the tensor encoding (`name`, then the length-prefixed
/// tensor bytes).
pub fn canon_param_sink<T: Element>(name: &str, t: &Tensor<T>, sink: &mut impl CanonSink) {
    canon_param_header_sink(name, t, sink);
    sink.put(&element_bytes(t.data()));
}

/// The part of [`canon_param`] before the element bytes.
pub(crate) fn canon_param_header_sink<T: Element>(
    name: &str,
    t: &Tensor<T>,
    sink: &mut impl CanonSink,
) {
    put_str(sink, name);
    sink.put(&(canon_tensor_len(t) as u64).to_le_bytes());
    canon_tensor_header_sink(t, sink);
}

/// Canonical serialization of a named parameter (`name` then tensor).
pub fn canon_param<T: Element>(name: &str, t: &Tensor<T>) -> Vec<u8> {
    let mut out = Vec::new();
    canon_param_sink(name, t, &mut out);
    out
}

/// Canonical operator signature `σ(n)`: name, kind mnemonic, attribute
/// encoding, and input edges (topology is implied by the argument ids).
pub fn canon_signature(node: &Node) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(node.id.0 as u64).to_le_bytes());
    put_str(&mut out, &node.name);
    put_str(&mut out, node.kind.mnemonic());
    // Attribute encoding: the serde debug of the kind is stable within this
    // crate graph and covers every attribute (eps, stride, axes, ...).
    put_str(&mut out, &format!("{:?}", node.kind));
    out.extend_from_slice(&(node.inputs.len() as u64).to_le_bytes());
    for input in &node.inputs {
        out.extend_from_slice(&(input.0 as u64).to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_graph::{NodeId, OpKind};

    #[test]
    fn tensor_canon_distinguishes_shape() {
        let a = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_ne!(canon_tensor(&a), canon_tensor(&b));
    }

    #[test]
    fn tensor_canon_distinguishes_dtype() {
        let a = Tensor::<f32>::ones(&[2]);
        let b = Tensor::<f64>::ones(&[2]);
        assert_ne!(canon_tensor(&a), canon_tensor(&b));
    }

    #[test]
    fn tensor_canon_distinguishes_last_bit() {
        let a = Tensor::<f32>::from_vec(vec![1.0], &[1]).unwrap();
        let b = Tensor::<f32>::from_vec(vec![1.0 + f32::EPSILON], &[1]).unwrap();
        assert_ne!(canon_tensor(&a), canon_tensor(&b));
    }

    #[test]
    fn param_canon_includes_name() {
        let t = Tensor::<f32>::ones(&[1]);
        assert_ne!(canon_param("a", &t), canon_param("b", &t));
    }

    #[test]
    fn signature_covers_attributes_and_edges() {
        let base = Node {
            id: NodeId(3),
            name: "conv".into(),
            kind: OpKind::Conv2d {
                stride: 1,
                padding: 0,
            },
            inputs: vec![NodeId(0), NodeId(1)],
        };
        let mut stride2 = base.clone();
        stride2.kind = OpKind::Conv2d {
            stride: 2,
            padding: 0,
        };
        assert_ne!(canon_signature(&base), canon_signature(&stride2));
        let mut rewired = base.clone();
        rewired.inputs = vec![NodeId(0), NodeId(2)];
        assert_ne!(canon_signature(&base), canon_signature(&rewired));
        let mut renamed = base.clone();
        renamed.name = "conv2".into();
        assert_ne!(canon_signature(&base), canon_signature(&renamed));
    }

    #[test]
    fn length_prefixing_prevents_concat_ambiguity() {
        // ("ab", "c") vs ("a", "bc") must differ.
        let mut x = Vec::new();
        put_str(&mut x, "ab");
        put_str(&mut x, "c");
        let mut y = Vec::new();
        put_str(&mut y, "a");
        put_str(&mut y, "bc");
        assert_ne!(x, y);
    }
}
