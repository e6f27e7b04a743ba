//! Fill colors. The benchmark only exercises fill color — conditional
//! formatting colors matching cells green — and a fill is kept beside the
//! values, as per-column row runs (`grid::fills`), not in the cell. What a
//! formatting pass costs is charged to the meter as one `StyleUpdate` per
//! cell whose fill changed, whatever a fill is made of.

/// An RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Color {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Color {
    pub const BLACK: Color = Color { r: 0, g: 0, b: 0 };
    /// The green used by the paper's conditional-formatting experiment
    /// ("we color a cell green if it contains the value 1", §4.2.2).
    pub const GREEN: Color = Color { r: 0, g: 176, b: 80 };
}
