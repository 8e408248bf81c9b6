//! Output checks: against the naive Rust references at the suite's own
//! tolerance, and bitwise against a direct session run.

use std::collections::HashMap;

/// Relative tolerance of the Polybench suite's own reference tests.
pub const REF_TOL: f64 = 1e-7;

/// `got` matches `want` on every checked container within `tol`, scaled
/// as in the suite's `assert_allclose`: `|x - y| <= tol * (1 + max(|x|, |y|))`.
pub fn allclose(
    check: &[String],
    got: &HashMap<String, Vec<f64>>,
    want: &HashMap<String, Vec<f64>>,
    tol: f64,
) -> Result<(), String> {
    for name in check {
        let a = got.get(name).ok_or(format!("output `{name}` missing"))?;
        let b = want
            .get(name)
            .ok_or(format!("reference `{name}` missing"))?;
        if a.len() != b.len() {
            return Err(format!("`{name}`: {} values, want {}", a.len(), b.len()));
        }
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let close = (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs()));
            if !close {
                return Err(format!("`{name}`[{i}]: got {x}, want {y}"));
            }
        }
    }
    Ok(())
}

/// `got` equals `want` bit for bit on every checked container.
pub fn bitwise(
    check: &[String],
    got: &HashMap<String, Vec<f64>>,
    want: &HashMap<String, Vec<f64>>,
) -> Result<(), String> {
    for name in check {
        let a = got.get(name).ok_or(format!("output `{name}` missing"))?;
        let b = want.get(name).ok_or(format!("expected `{name}` missing"))?;
        if a.len() != b.len() {
            return Err(format!("`{name}`: {} values, want {}", a.len(), b.len()));
        }
        if let Some(i) = (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits()) {
            return Err(format!("`{name}`[{i}]: got {}, want {}", a[i], b[i]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(v: Vec<f64>) -> HashMap<String, Vec<f64>> {
        HashMap::from([("C".to_string(), v)])
    }

    #[test]
    fn tolerance_is_relative() {
        let check = vec!["C".to_string()];
        assert!(allclose(&check, &one(vec![1e6]), &one(vec![1e6 + 1e-2]), REF_TOL).is_ok());
        assert!(allclose(&check, &one(vec![1.0]), &one(vec![1.001]), REF_TOL).is_err());
        assert!(allclose(&check, &one(vec![f64::NAN]), &one(vec![1.0]), REF_TOL).is_err());
        assert!(allclose(&check, &one(vec![1.0]), &one(vec![1.0, 2.0]), REF_TOL).is_err());
    }

    #[test]
    fn bitwise_sees_one_ulp() {
        let check = vec!["C".to_string()];
        let x = 0.1f64;
        let next = f64::from_bits(x.to_bits() + 1);
        assert!(bitwise(&check, &one(vec![x]), &one(vec![x])).is_ok());
        assert!(bitwise(&check, &one(vec![x]), &one(vec![next])).is_err());
        assert!(bitwise(&check, &HashMap::new(), &one(vec![x])).is_err());
    }
}
