//! Cell styling. The benchmark only exercises fill color (conditional
//! formatting colors matching cells green), but the model carries the
//! common attributes so styling costs are realistic.

/// An RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Color {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Color {
    pub const WHITE: Color = Color { r: 255, g: 255, b: 255 };
    pub const BLACK: Color = Color { r: 0, g: 0, b: 0 };
    /// The green used by the paper's conditional-formatting experiment
    /// ("we color a cell green if it contains the value 1", §4.2.2).
    pub const GREEN: Color = Color { r: 0, g: 176, b: 80 };
}

/// Style attributes attached to a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Style {
    pub fill: Option<Color>,
    pub font_color: Option<Color>,
    pub bold: bool,
    pub italic: bool,
}

impl Style {
    /// The default (unstyled) style.
    pub const fn plain() -> Self {
        Style { fill: None, font_color: None, bold: false, italic: false }
    }

    /// Whether this is exactly the default style (such cells need not be
    /// stored).
    pub fn is_plain(&self) -> bool {
        *self == Style::plain()
    }

    /// Returns a copy with the fill color set.
    pub fn with_fill(self, color: Color) -> Self {
        Style { fill: Some(color), ..self }
    }
}

impl Default for Style {
    fn default() -> Self {
        Style::plain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_detection() {
        assert!(Style::plain().is_plain());
        assert!(!Style::plain().with_fill(Color::GREEN).is_plain());
    }

    #[test]
    fn with_fill_preserves_other_attrs() {
        let s = Style { bold: true, ..Style::plain() }.with_fill(Color::BLACK);
        assert!(s.bold);
        assert_eq!(s.fill, Some(Color::BLACK));
    }
}
