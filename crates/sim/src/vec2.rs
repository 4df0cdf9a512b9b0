//! Minimal 2-D vector math for the simulator.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 2-D vector / point in world coordinates (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f32,
    pub y: f32,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    pub fn dot(self, other: Vec2) -> f32 {
        self.x * other.x + self.y * other.y
    }

    pub fn norm_sq(self) -> f32 {
        self.dot(self)
    }

    pub fn norm(self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Unit vector in this direction; zero vector stays zero.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n > 1e-9 {
            self / n
        } else {
            Vec2::ZERO
        }
    }

    pub fn distance(self, other: Vec2) -> f32 {
        (self - other).norm()
    }

    /// Clamps the magnitude to `max` while preserving direction.
    pub fn clamp_norm(self, max: f32) -> Vec2 {
        let n = self.norm();
        if n > max && n > 0.0 {
            self * (max / n)
        } else {
            self
        }
    }

    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, o: Vec2) {
        self.x += o.x;
        self.y += o.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f32) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f32> for Vec2 {
    type Output = Vec2;
    fn div(self, s: f32) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn norms_and_normalize() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        let u = v.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-6);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn clamp_norm_caps_long_vectors_only() {
        let v = Vec2::new(6.0, 8.0);
        assert!((v.clamp_norm(5.0).norm() - 5.0).abs() < 1e-5);
        let short = Vec2::new(0.3, 0.4);
        assert_eq!(short.clamp_norm(5.0), short);
    }

    #[test]
    fn distance_symmetric() {
        let a = Vec2::new(1.0, 1.0);
        let b = Vec2::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
    }
}
