//! First-order thermal model for duty-cycled appliances.
//!
//! The paper notes that minDCD/maxDCP vary with environmental factors: an AC
//! chasing 20 °C against a 40 °C afternoon needs a shorter duty-cycle period
//! than one chasing 30 °C. This module provides the standard first-order RC
//! room model used in demand-response studies:
//!
//! ```text
//! dT/dt = (T_ambient − T) / τ  −  g · u(t)
//! ```
//!
//! where `τ` is the thermal time constant, `g` the cooling rate of the
//! appliance (an air conditioner or fridge), and `u(t) ∈ {0, 1}` the
//! element state.
//! It supports comfort metrics in the examples and lets tests derive the
//! duty fraction a thermostat would naturally produce.

use han_sim::time::SimDuration;

/// A first-order thermal environment coupled to one cooling appliance.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    temperature_c: f64,
    ambient_c: f64,
    time_constant: SimDuration,
    actuation_c_per_hour: f64,
}

impl ThermalModel {
    /// Creates a model at an initial temperature.
    ///
    /// `actuation_c_per_hour` is how fast the appliance cools the room
    /// while ON.
    ///
    /// # Panics
    ///
    /// Panics if the time constant is zero or the actuation is negative.
    pub(crate) fn new(
        initial_c: f64,
        ambient_c: f64,
        time_constant: SimDuration,
        actuation_c_per_hour: f64,
    ) -> Self {
        assert!(!time_constant.is_zero(), "time constant must be positive");
        assert!(
            actuation_c_per_hour >= 0.0,
            "actuation magnitude must be non-negative"
        );
        ThermalModel {
            temperature_c: initial_c,
            ambient_c,
            time_constant,
            actuation_c_per_hour,
        }
    }

    /// A typical bedroom with a split AC: 40 °C ambient, τ = 2 h, the AC
    /// pulls 8 °C/h while ON.
    pub fn indian_summer_room(initial_c: f64) -> Self {
        ThermalModel::new(initial_c, 40.0, SimDuration::from_hours(2), 8.0)
    }

    /// Current temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Advances the model by `dt` with the element ON or OFF.
    ///
    /// Uses the exact exponential solution of the linear ODE over the step,
    /// so step size does not affect accuracy.
    pub fn step(&mut self, dt: SimDuration, element_on: bool) {
        let tau_h = self.time_constant.as_hours_f64();
        let dt_h = dt.as_hours_f64();
        // Effective equilibrium: ambient shifted by the cooling term.
        let drive = if element_on {
            -self.actuation_c_per_hour
        } else {
            0.0
        };
        let equilibrium = self.ambient_c + drive * tau_h;
        let decay = (-dt_h / tau_h).exp();
        self.temperature_c = equilibrium + (self.temperature_c - equilibrium) * decay;
    }

    /// The steady-state duty fraction a thermostat holding `target_c` needs:
    /// the ratio of natural drift rate to actuation rate at the target.
    ///
    /// Returns a value clamped to `[0, 1]`; 1 means the appliance cannot
    /// hold the target even running continuously.
    pub fn required_duty_fraction(&self, target_c: f64) -> f64 {
        let tau_h = self.time_constant.as_hours_f64();
        // Natural drift toward ambient at the target, °C/h.
        let drift = (self.ambient_c - target_c).abs() / tau_h;
        if self.actuation_c_per_hour <= 0.0 {
            return 1.0;
        }
        (drift / self.actuation_c_per_hour).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drifts_to_ambient_when_off() {
        let mut m = ThermalModel::indian_summer_room(25.0);
        for _ in 0..100 {
            m.step(SimDuration::from_mins(30), false);
        }
        assert!((m.temperature_c() - 40.0).abs() < 0.01);
    }

    #[test]
    fn cooling_pulls_below_ambient() {
        let mut m = ThermalModel::indian_summer_room(40.0);
        m.step(SimDuration::from_hours(1), true);
        assert!(m.temperature_c() < 40.0);
    }

    #[test]
    fn exact_solution_is_step_invariant() {
        let mut coarse = ThermalModel::indian_summer_room(30.0);
        let mut fine = ThermalModel::indian_summer_room(30.0);
        coarse.step(SimDuration::from_hours(1), true);
        for _ in 0..60 {
            fine.step(SimDuration::from_mins(1), true);
        }
        assert!((coarse.temperature_c() - fine.temperature_c()).abs() < 1e-9);
    }

    #[test]
    fn duty_fraction_matches_paper_regime() {
        // The paper's 15/30 constraint implies a 50 % duty cycle; a room
        // whose drift is half the AC's pull needs exactly that.
        let m = ThermalModel::new(24.0, 40.0, SimDuration::from_hours(2), 4.0);
        // Drift at 24 °C: (40-24)/2 = 8 °C/h... that exceeds 4 => clamp to 1.
        assert_eq!(m.required_duty_fraction(24.0), 1.0);
        let m2 = ThermalModel::new(24.0, 40.0, SimDuration::from_hours(4), 8.0);
        // Drift (40-24)/4 = 4 °C/h against 8 °C/h pull: 50 % duty.
        assert!((m2.required_duty_fraction(24.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hotter_target_needs_less_duty() {
        let m = ThermalModel::indian_summer_room(30.0);
        let cold = m.required_duty_fraction(20.0);
        let warm = m.required_duty_fraction(30.0);
        assert!(cold > warm, "cold={cold} warm={warm}");
    }

    #[test]
    #[should_panic(expected = "time constant")]
    fn zero_tau_panics() {
        ThermalModel::new(20.0, 30.0, SimDuration::ZERO, 1.0);
    }
}
